// Property sweeps, concurrency stress and failure injection across the
// stack — the "keep widening coverage" suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyze.h"
#include "android_gl/egl.h"
#include "android_gl/vendor.h"
#include "core/batch.h"
#include "core/diplomat.h"
#include "core/impersonation.h"
#include "core/replay.h"
#include "glcore/engine.h"
#include "glport/system_config.h"
#include "gpu/device.h"
#include "gpu/pipeline.h"
#include "ios_gl/eagl.h"
#include "ios_gl/gles.h"
#include "iosurface/iosurface.h"
#include "kernel/kernel.h"
#include "kernel/libc.h"
#include "passmark/passmark.h"
#include "linker/linker.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/lock_order.h"
#include "util/retry.h"
#include "util/watchdog.h"
#include "util/rng.h"
#include "webkit/browser.h"

namespace cycada {
namespace {

// --- Rasterizer property: random draws never escape the scissor -------------

class ScissorContainmentTest : public ::testing::TestWithParam<int> {};

TEST_P(ScissorContainmentTest, RandomTrianglesStayInsideScissor) {
  gpu::GpuDevice::instance().reset();
  auto& dev = gpu::GpuDevice::instance();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int size = 32;
  const auto target = dev.create_target(size, size, true);
  dev.submit_clear(target, std::nullopt, true, {0, 0, 0, 1}, true, 1.f);

  gpu::ScissorRect scissor{static_cast<int>(rng.next_below(16)),
                           static_cast<int>(rng.next_below(16)),
                           static_cast<int>(rng.next_below(14)) + 2,
                           static_cast<int>(rng.next_below(14)) + 2};
  gpu::RasterState state;
  state.scissor = scissor;
  state.blend = rng.next_below(2) == 0;
  state.blend_src = gpu::BlendFactor::kSrcAlpha;
  state.blend_dst = gpu::BlendFactor::kOneMinusSrcAlpha;
  state.depth_test = rng.next_below(2) == 0;

  for (int i = 0; i < 20; ++i) {
    std::vector<gpu::ShadedVertex> tri(3);
    for (auto& v : tri) {
      v.clip_pos = {rng.next_float(-2.f, 2.f), rng.next_float(-2.f, 2.f),
                    rng.next_float(-1.f, 1.f), 1.f};
      v.color = {1.f, 1.f, 1.f, rng.next_float(0.2f, 1.f)};
    }
    dev.submit_draw(target, state, gpu::PrimitiveKind::kTriangles, tri);
  }
  dev.flush();

  std::vector<std::uint32_t> pixels(size * size);
  ASSERT_TRUE(
      dev.read_pixels(target, 0, 0, size, size, pixels.data(), size).is_ok());
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      const bool inside = x >= scissor.x && x < scissor.x + scissor.width &&
                          y >= scissor.y && y < scissor.y + scissor.height;
      if (!inside) {
        EXPECT_EQ(pixels[y * size + x], 0xff000000u)
            << "pixel outside scissor touched at " << x << "," << y;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScissorContainmentTest,
                         ::testing::Range(0, 12));

// --- Blend factor sweep vs. CPU-computed expectations ------------------------

struct BlendCase {
  gpu::BlendFactor src;
  gpu::BlendFactor dst;
};

class BlendSweepTest : public ::testing::TestWithParam<BlendCase> {};

TEST_P(BlendSweepTest, MatchesClosedFormBlend) {
  gpu::GpuDevice::instance().reset();
  auto& dev = gpu::GpuDevice::instance();
  const auto target = dev.create_target(4, 4, false);
  const Color dst_color{0.25f, 0.5f, 0.75f, 0.5f};
  const Color src_color{0.8f, 0.4f, 0.2f, 0.6f};
  dev.submit_clear(target, std::nullopt, true, dst_color, false, 1.f);

  gpu::RasterState state;
  state.blend = true;
  state.blend_src = GetParam().src;
  state.blend_dst = GetParam().dst;
  std::vector<gpu::ShadedVertex> quad(6);
  const float pts[6][2] = {{-1, -1}, {1, -1}, {1, 1}, {-1, -1}, {1, 1}, {-1, 1}};
  for (int i = 0; i < 6; ++i) {
    quad[i].clip_pos = {pts[i][0], pts[i][1], 0.f, 1.f};
    quad[i].color = src_color;
  }
  dev.submit_draw(target, state, gpu::PrimitiveKind::kTriangles, quad);
  std::vector<std::uint32_t> pixels(16);
  ASSERT_TRUE(dev.read_pixels(target, 0, 0, 4, 4, pixels.data(), 4).is_ok());

  // Closed-form expectation (must quantize dst through the framebuffer
  // the same way the device does).
  const Color stored_dst = unpack_rgba8888(pack_rgba8888(dst_color));
  const auto factor = [&](gpu::BlendFactor f, float s, float /*d*/) {
    switch (f) {
      case gpu::BlendFactor::kZero: return 0.f;
      case gpu::BlendFactor::kOne: return 1.f;
      case gpu::BlendFactor::kSrcAlpha: return src_color.a;
      case gpu::BlendFactor::kOneMinusSrcAlpha: return 1.f - src_color.a;
      case gpu::BlendFactor::kDstAlpha: return stored_dst.a;
      case gpu::BlendFactor::kOneMinusDstAlpha: return 1.f - stored_dst.a;
      case gpu::BlendFactor::kSrcColor: return s;
      case gpu::BlendFactor::kOneMinusSrcColor: return 1.f - s;
    }
    return 1.f;
  };
  const auto expect_channel = [&](float s, float d) {
    return clamp01(s * factor(GetParam().src, s, 0.f) +
                   d * factor(GetParam().dst, s, 0.f));
  };
  const Color expected{expect_channel(src_color.r, stored_dst.r),
                       expect_channel(src_color.g, stored_dst.g),
                       expect_channel(src_color.b, stored_dst.b),
                       expect_channel(src_color.a, stored_dst.a)};
  const Color actual = unpack_rgba8888(pixels[5]);
  EXPECT_NEAR(actual.r, expected.r, 2.f / 255.f);
  EXPECT_NEAR(actual.g, expected.g, 2.f / 255.f);
  EXPECT_NEAR(actual.b, expected.b, 2.f / 255.f);
  EXPECT_NEAR(actual.a, expected.a, 2.f / 255.f);
}

INSTANTIATE_TEST_SUITE_P(
    Factors, BlendSweepTest,
    ::testing::Values(
        BlendCase{gpu::BlendFactor::kOne, gpu::BlendFactor::kZero},
        BlendCase{gpu::BlendFactor::kSrcAlpha,
                  gpu::BlendFactor::kOneMinusSrcAlpha},
        BlendCase{gpu::BlendFactor::kOne, gpu::BlendFactor::kOne},
        BlendCase{gpu::BlendFactor::kDstAlpha, gpu::BlendFactor::kZero},
        BlendCase{gpu::BlendFactor::kSrcColor,
                  gpu::BlendFactor::kOneMinusSrcColor},
        BlendCase{gpu::BlendFactor::kZero,
                  gpu::BlendFactor::kOneMinusDstAlpha}));

// --- Topology equivalence: strip/fan/list produce identical pixels -----------

TEST(TopologyTest, StripFanAndListAgree) {
  kernel::Kernel::instance().reset();
  gpu::GpuDevice::instance().reset();
  glcore::GlesEngine engine({});
  const auto render = [&](glcore::GLenum mode, const float* verts, int count) {
    const auto target = gpu::GpuDevice::instance().create_target(16, 16, false);
    const auto ctx = engine.create_context(1);
    EXPECT_TRUE(engine.make_current(ctx, target).is_ok());
    engine.glViewport(0, 0, 16, 16);
    engine.glClearColor(0, 0, 0, 1);
    engine.glClear(glcore::GL_COLOR_BUFFER_BIT);
    engine.glColor4f(1.f, 0.f, 1.f, 1.f);
    engine.glEnableClientState(glcore::GL_VERTEX_ARRAY);
    engine.glVertexPointer(2, glcore::GL_FLOAT, 0, verts);
    engine.glDrawArrays(mode, 0, count);
    std::vector<std::uint32_t> pixels(256);
    engine.glReadPixels(0, 0, 16, 16, glcore::GL_RGBA,
                        glcore::GL_UNSIGNED_BYTE, pixels.data());
    (void)engine.make_current(glcore::kNoContext, gpu::kNoHandle);
    (void)engine.destroy_context(ctx);
    return pixels;
  };

  // The same quad three ways.
  const float list[] = {-0.5f, -0.5f, 0.5f, -0.5f, 0.5f, 0.5f,
                        -0.5f, -0.5f, 0.5f, 0.5f,  -0.5f, 0.5f};
  const float strip[] = {-0.5f, -0.5f, 0.5f, -0.5f, -0.5f, 0.5f, 0.5f, 0.5f};
  const float fan[] = {-0.5f, -0.5f, 0.5f, -0.5f, 0.5f, 0.5f, -0.5f, 0.5f};
  const auto a = render(glcore::GL_TRIANGLES, list, 6);
  const auto b = render(glcore::GL_TRIANGLE_STRIP, strip, 4);
  const auto c = render(glcore::GL_TRIANGLE_FAN, fan, 4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

// --- Kernel concurrency stress ------------------------------------------------

TEST(KernelStressTest, ConcurrentSyscallsAndTlsStayConsistent) {
  kernel::Kernel::instance().reset();
  kernel::Kernel::instance().register_current_thread(
      kernel::Persona::kAndroid);
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      auto& kernel = kernel::Kernel::instance();
      kernel.register_current_thread(t % 2 == 0 ? kernel::Persona::kAndroid
                                                : kernel::Persona::kIos);
      const kernel::TlsKey key = kernel::libc::pthread_key_create();
      if (key == kernel::kInvalidTlsKey) {
        failures.fetch_add(1);
        return;
      }
      std::intptr_t mine = t + 1;
      for (int i = 0; i < kRounds; ++i) {
        if (kernel::sys_null() != 0) failures.fetch_add(1);
        kernel.tls_set(key, reinterpret_cast<void*>(mine));
        if (kernel.tls_get(key) != reinterpret_cast<void*>(mine)) {
          failures.fetch_add(1);
        }
        const kernel::Persona persona =
            i % 2 == 0 ? kernel::Persona::kIos : kernel::Persona::kAndroid;
        if (kernel::sys_set_persona(persona) != 0) failures.fetch_add(1);
      }
      kernel::libc::pthread_key_delete(key);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Linker stress: many replicas, concurrent loads ---------------------------

TEST(LinkerStressTest, ManyReplicasStayIsolated) {
  kernel::Kernel::instance().reset();
  gpu::GpuDevice::instance().reset();
  linker::Linker::instance().reset();
  android_gl::register_android_graphics_libraries();
  auto& linker = linker::Linker::instance();

  std::vector<linker::Handle> replicas;
  std::set<void*> globals;
  for (int i = 0; i < 40; ++i) {
    auto replica = linker.dlforce(android_gl::kNvRmLib);
    ASSERT_TRUE(replica.is_ok()) << i;
    void* global = linker.dlsym(*replica, "nv_global");
    ASSERT_NE(global, nullptr);
    EXPECT_TRUE(globals.insert(global).second) << "duplicate global at " << i;
    replicas.push_back(std::move(replica.value()));
  }
  EXPECT_EQ(linker.live_copy_count(android_gl::kNvRmLib), 40);
  for (auto& replica : replicas) {
    EXPECT_TRUE(linker.dlclose(std::move(replica)).is_ok());
  }
  EXPECT_EQ(linker.live_copy_count(android_gl::kNvRmLib), 0);
}

TEST(LinkerStressTest, ConcurrentDlopenSharesOneCopy) {
  kernel::Kernel::instance().reset();
  linker::Linker::instance().reset();
  android_gl::register_android_graphics_libraries();
  auto& linker = linker::Linker::instance();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<void*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &linker, &seen] {
      for (int i = 0; i < 50; ++i) {
        auto handle = linker.dlopen(android_gl::kNvOsLib);
        if (!handle.is_ok()) return;
        seen[t] = linker.dlsym(*handle, "nv_global");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    EXPECT_NE(seen[t], nullptr);
  }
}

// --- Diplomat statistics under concurrency ------------------------------------

TEST(DiplomatStressTest, ConcurrentCallsCountExactly) {
  kernel::Kernel::instance().reset();
  core::DiplomatRegistry::instance().reset();
  auto& entry = core::DiplomatRegistry::instance().entry(
      "stress.fn", core::DiplomatPattern::kDirect);
  constexpr int kThreads = 8;
  constexpr int kCalls = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&entry] {
      kernel::Kernel::instance().register_current_thread(
          kernel::Persona::kIos);
      for (int i = 0; i < kCalls; ++i) {
        core::diplomat_call(entry, {}, [] {});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(entry.calls.load(), static_cast<std::uint64_t>(kThreads) * kCalls);
}

// --- End-to-end: glDeleteTextures severs the IOSurface association ------------

TEST(MultiDiplomatTest, DeleteTexturesSeversIoSurfaceBinding) {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  auto context = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 32, 32);
  ASSERT_TRUE(context.is_ok());
  ios_gl::EAGLContext::set_current_context(*context);

  auto surface = iosurface::IOSurfaceCreate({.width = 8, .height = 8});
  ASSERT_NE(surface, nullptr);
  glcore::GLuint texture = 0;
  ios_gl::glGenTextures(1, &texture);
  ASSERT_TRUE((*context)->tex_image_io_surface(surface, texture).is_ok());
  EXPECT_EQ(surface->backing()->egl_image_refs(), 1);
  EXPECT_EQ(surface->bound_texture(), texture);

  // The §6.1 multi diplomat: delete also removes the kernel-side
  // association so the surface is CPU-lockable again without the dance.
  ios_gl::glDeleteTextures(1, &texture);
  EXPECT_EQ(surface->bound_texture(), 0u);
  EXPECT_EQ(surface->backing()->egl_image_refs(), 0);
  EXPECT_TRUE(iosurface::IOSurfaceLock(surface).is_ok());
  EXPECT_TRUE(iosurface::IOSurfaceUnlock(surface).is_ok());
  ios_gl::EAGLContext::clear_current_context();
}

// --- Failure injection ----------------------------------------------------------

TEST(FailureInjectionTest, BadInputsFailGracefully) {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);

  // EAGL: present without drawable storage.
  auto context = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 16, 16);
  ASSERT_TRUE(context.is_ok());
  ios_gl::EAGLContext::set_current_context(*context);
  EXPECT_EQ((*context)->present_renderbuffer(123).code(),
            StatusCode::kFailedPrecondition);
  // EAGL: zero-size layer.
  EXPECT_FALSE((*context)
                   ->renderbuffer_storage_from_drawable(
                       1, ios_gl::CAEAGLLayer{0, 16})
                   .is_ok());
  // IOSurface: absurd dimensions.
  EXPECT_EQ(iosurface::IOSurfaceCreate({.width = 1 << 20, .height = 4}),
            nullptr);
  // gralloc: zero usage flags.
  EXPECT_FALSE(gmem::GrallocAllocator::instance()
                   .allocate(4, 4, PixelFormat::kRgba8888, 0)
                   .is_ok());
  // Engine: unknown enum surfaces as GL_INVALID_ENUM, not a crash.
  ios_gl::glEnable(0x9999);
  EXPECT_EQ(ios_gl::glGetError(), glcore::GL_INVALID_ENUM);
  ios_gl::EAGLContext::clear_current_context();
}

TEST(FailureInjectionTest, BrowserRejectsMalformedMarkupGracefully) {
  glport::apply_system_config(glport::SystemConfig::kAndroid);
  auto port = glport::make_gl_port(glport::SystemConfig::kAndroid);
  ASSERT_TRUE(port->init(64, 64, 2).is_ok());
  webkit::Browser browser(*port, true);
  EXPECT_FALSE(browser.load("<body><div>no close").is_ok());
  // The browser is still usable afterwards.
  EXPECT_TRUE(browser.load("<body bg=#102030><p>ok</p></body>").is_ok());
  EXPECT_EQ(browser.screen().at(40, 60), webkit::parse_color("#102030"));
}

// --- Determinism: identical screens across repeat runs -------------------------

TEST(DeterminismTest, PassMarkFramesAreReproducible) {
  const auto run_once = [] {
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
    auto port = glport::make_gl_port(glport::SystemConfig::kCycadaIos);
    EXPECT_TRUE(port->init(64, 64, 1).is_ok());
    passmark::PassMark passmark(*port);
    EXPECT_TRUE(passmark.run("Transparent Vectors", 3).is_ok());
    return port->screen();
  };
  const Image first = run_once();
  const Image second = run_once();
  EXPECT_EQ(Image::diff_count(first, second), 0u);
}


// --- WebKit render thread (paper §7: "the iOS WebKit library spawns a
// rendering thread ... used by other threads related to WebKit") -------------

TEST(ThreadedRenderingTest, RenderThreadMatchesInlineRendering) {
  const char* page =
      "<body bg=#203040><h1 color=#f0f0f0>threads</h1>"
      "<p color=#90c0f0>painted on a dedicated render thread</p></body>";

  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  auto inline_port = glport::make_gl_port(glport::SystemConfig::kCycadaIos);
  ASSERT_TRUE(inline_port->init(128, 128, 2).is_ok());
  webkit::Browser inline_browser(*inline_port, false);
  ASSERT_TRUE(inline_browser.load(page).is_ok());
  const Image inline_screen = inline_browser.screen();

  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  auto threaded_port = glport::make_gl_port(glport::SystemConfig::kCycadaIos);
  ASSERT_TRUE(threaded_port->init(128, 128, 2).is_ok());
  webkit::Browser threaded_browser(*threaded_port, false);
  threaded_browser.enable_threaded_rendering();
  EXPECT_TRUE(threaded_browser.threaded_rendering());
  ASSERT_TRUE(threaded_browser.load(page).is_ok());
  ASSERT_TRUE(threaded_browser.render_frame().is_ok());
  const Image threaded_screen = threaded_browser.screen();

  EXPECT_EQ(Image::diff_count(inline_screen, threaded_screen), 0u);
}

// --- Native-iOS IOSurface semantics: no dance needed -------------------------

TEST(NativeIosTest, LockSucceedsWhileTextureBoundWithoutDance) {
  glport::apply_system_config(glport::SystemConfig::kIos);
  auto context = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 16, 16);
  ASSERT_TRUE(context.is_ok());
  ios_gl::EAGLContext::set_current_context(*context);

  auto surface = iosurface::IOSurfaceCreate({.width = 8, .height = 8});
  ASSERT_NE(surface, nullptr);
  glcore::GLuint texture = 0;
  ios_gl::glGenTextures(1, &texture);
  ASSERT_TRUE((*context)->tex_image_io_surface(surface, texture).is_ok());
  // On real iOS the buffer stays GLES-associated through the lock: Apple
  // hardware permits concurrent CPU mapping (no §6.2 dance).
  const int refs_before = surface->backing()->egl_image_refs();
  EXPECT_GE(refs_before, 1);
  ASSERT_TRUE(iosurface::IOSurfaceLock(surface).is_ok());
  EXPECT_EQ(surface->backing()->egl_image_refs(), refs_before);
  auto* pixels = static_cast<std::uint32_t*>(
      iosurface::IOSurfaceGetBaseAddress(surface));
  ASSERT_NE(pixels, nullptr);
  pixels[0] = 0xff112233u;
  ASSERT_TRUE(iosurface::IOSurfaceUnlock(surface).is_ok());
  EXPECT_EQ(surface->backing()->pixels32()[0], 0xff112233u);
  ios_gl::EAGLContext::clear_current_context();
}

// --- Fault points: trigger semantics (docs/ROBUSTNESS.md) --------------------

TEST(RobustnessFaultPointTest, OnceFiresExactlyOnThedNthTraversal) {
  util::FaultPoint& point =
      util::FaultRegistry::instance().point("test.sem.once");
  point.disarm();
  point.reset_stats();
  point.arm_once(3);
  std::vector<int> fired_at;
  for (int i = 1; i <= 10; ++i) {
    if (point.should_fail()) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, std::vector<int>({3}));
  EXPECT_EQ(point.hits(), 10u);
  EXPECT_EQ(point.fires(), 1u);
  point.disarm();
}

TEST(RobustnessFaultPointTest, EveryNthFiresPeriodically) {
  util::FaultPoint& point =
      util::FaultRegistry::instance().point("test.sem.every");
  point.disarm();
  point.reset_stats();
  point.arm_every(4);
  int fires = 0;
  for (int i = 0; i < 12; ++i) {
    if (point.should_fail()) ++fires;
  }
  EXPECT_EQ(fires, 3);  // traversals 4, 8, 12
  EXPECT_EQ(point.fires(), 3u);
  point.disarm();
  // Disarmed again: pure pass-through, and hits stop accumulating.
  const std::uint64_t hits = point.hits();
  EXPECT_FALSE(point.should_fail());
  EXPECT_EQ(point.hits(), hits);
}

TEST(RobustnessFaultPointTest, ProbabilityIsReproduciblePerSeed) {
  util::FaultPoint& point =
      util::FaultRegistry::instance().point("test.sem.prob");
  auto run = [&point](std::uint64_t seed) {
    point.disarm();
    point.reset_stats();
    point.arm_probability(300000, seed);  // 30%
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) fires.push_back(point.should_fail());
    point.disarm();
    return fires;
  };
  const std::vector<bool> first = run(42);
  const std::vector<bool> second = run(42);
  EXPECT_EQ(first, second);  // same seed, same fire sequence: replayable
  const int fires = static_cast<int>(std::count(first.begin(), first.end(),
                                                true));
  EXPECT_GT(fires, 20);   // ~60 expected; wide slack, deterministic anyway
  EXPECT_LT(fires, 120);
  EXPECT_NE(first, run(43));  // a different seed gives a different sequence
}

TEST(RobustnessFaultPointTest, SuppressionScopeMasksArmedPointsOnThisThread) {
  util::FaultPoint& point =
      util::FaultRegistry::instance().point("test.sem.suppress");
  point.disarm();
  point.reset_stats();
  point.arm_every(1);
  {
    util::FaultSuppressionScope no_faults;
    EXPECT_FALSE(point.should_fail());
    // Suppressed traversals never happened: no hit, no fire.
    EXPECT_EQ(point.hits(), 0u);
    EXPECT_EQ(point.fires(), 0u);
    // Other threads are unaffected: the scope is thread-local.
    std::thread other([&point] { EXPECT_TRUE(point.should_fail()); });
    other.join();
  }
  EXPECT_TRUE(point.should_fail());
  point.disarm();
}

TEST(RobustnessFaultConfigTest, ConfigureParsesTheCycadaFaultGrammar) {
  util::FaultRegistry& registry = util::FaultRegistry::instance();
  EXPECT_TRUE(registry.configure(
      "test.cfg.a=once,test.cfg.b=every:4,test.cfg.c=prob:500000:7"));
  EXPECT_EQ(registry.point("test.cfg.a").trigger(),
            util::FaultTrigger::kOnce);
  EXPECT_EQ(registry.point("test.cfg.b").trigger(),
            util::FaultTrigger::kEveryNth);
  EXPECT_EQ(registry.point("test.cfg.c").trigger(),
            util::FaultTrigger::kProbability);
  EXPECT_TRUE(registry.configure("test.cfg.a=off"));
  EXPECT_EQ(registry.point("test.cfg.a").trigger(),
            util::FaultTrigger::kDisarmed);
  // A malformed entry is reported, but well-formed entries still apply.
  EXPECT_FALSE(registry.configure("test.cfg.b=bogus,test.cfg.d=once:2"));
  EXPECT_EQ(registry.point("test.cfg.d").trigger(), util::FaultTrigger::kOnce);
  EXPECT_FALSE(registry.configure("no-equals-sign"));
  registry.disarm_all();
  for (const util::FaultPointInfo& info : registry.snapshot()) {
    EXPECT_EQ(info.trigger, util::FaultTrigger::kDisarmed) << info.name;
  }
}

TEST(RobustnessFaultConfigTest, AllAppliesOneTriggerToTheWholeCatalog) {
  util::FaultRegistry& registry = util::FaultRegistry::instance();
  EXPECT_TRUE(registry.configure("all=prob:1000:42"));
  for (const std::string& name : util::FaultRegistry::catalog()) {
    EXPECT_EQ(registry.point(name).trigger(), util::FaultTrigger::kProbability)
        << name;
  }
  EXPECT_TRUE(registry.configure("all=off"));
  for (const std::string& name : util::FaultRegistry::catalog()) {
    EXPECT_EQ(registry.point(name).trigger(), util::FaultTrigger::kDisarmed)
        << name;
  }
  // A malformed trigger on the pseudo-name is one error, not nine.
  EXPECT_FALSE(registry.configure("all=bogus"));
  registry.disarm_all();
}

TEST(RobustnessFaultPointTest, InjectedIOSurfaceLockFaultFailsGracefully) {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  auto surface = iosurface::IOSurfaceCreate({.width = 8, .height = 8});
  ASSERT_NE(surface, nullptr);

  util::FaultPoint& lock_fault =
      util::FaultRegistry::instance().point("iosurface.lock");
  lock_fault.disarm();
  lock_fault.arm_once(1);
  // The injected failure surfaces as a clean Status, not a crash, and the
  // surface stays usable: the very next lock succeeds.
  EXPECT_FALSE(iosurface::IOSurfaceLock(surface).is_ok());
  EXPECT_TRUE(iosurface::IOSurfaceLock(surface).is_ok());
  lock_fault.disarm();

  util::FaultPoint& unlock_fault =
      util::FaultRegistry::instance().point("iosurface.unlock");
  unlock_fault.disarm();
  unlock_fault.arm_once(1);
  EXPECT_FALSE(iosurface::IOSurfaceUnlock(surface).is_ok());
  unlock_fault.disarm();
  // The failed unlock did not corrupt lock state: the retry drains it.
  EXPECT_TRUE(iosurface::IOSurfaceUnlock(surface).is_ok());
}

TEST(RobustnessFaultPointTest, InjectedImpersonationFaultLeavesThreadUsable) {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  std::atomic<kernel::Tid> target{kernel::kInvalidTid};
  std::atomic<bool> stop{false};
  std::thread helper([&] {
    kernel::ThreadState& state =
        kernel::Kernel::instance().register_current_thread(
            kernel::Persona::kIos);
    target.store(state.tid(), std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (target.load(std::memory_order_acquire) == kernel::kInvalidTid) {
    std::this_thread::yield();
  }

  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("dispatch.impersonate");
  fault.disarm();
  fault.arm_once(1);
  {
    // The injected failure declines the impersonation instead of migrating
    // TLS halfway: the guard reports inactive and its destructor is a no-op.
    core::ThreadImpersonation failed(target.load());
    EXPECT_FALSE(failed.active());
  }
  fault.disarm();
  {
    core::ThreadImpersonation ok(target.load());
    EXPECT_TRUE(ok.active());
  }
  stop.store(true, std::memory_order_release);
  helper.join();
}

TEST(RobustnessRetryTest, RetriesUntilSuccessThenGivesUp) {
  int calls = 0;
  Status status = util::retry_with_backoff(5, [&calls]() -> Status {
    ++calls;
    return calls < 3 ? Status::internal("transient") : Status::ok();
  });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(calls, 3);

  calls = 0;
  status = util::retry_with_backoff(2, [&calls]() -> Status {
    ++calls;
    return Status::internal("persistent");
  });
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(calls, 2);
}

// --- Replica pool: warm reuse, LRU eviction, live cap ------------------------

TEST(RobustnessReplicaPoolTest, WarmReuseLruEvictionAndLiveCap) {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  android_gl::AndroidEgl* egl = android_gl::open_android_egl();
  ASSERT_NE(egl, nullptr);
  ASSERT_EQ(egl->eglInitialize(), android_gl::EGL_TRUE);
  egl->set_replica_pool_limits(/*max_live=*/2, /*max_warm=*/1);

  const int first = egl->eglReInitializeMC();
  const int second = egl->eglReInitializeMC();
  ASSERT_GT(first, 0);
  ASSERT_GT(second, 0);
  EXPECT_EQ(egl->live_replica_count(), 2);

  // At the live cap, minting refuses gracefully instead of growing.
  EXPECT_EQ(egl->eglReInitializeMC(), 0);
  EXPECT_EQ(egl->eglGetError(), android_gl::EGL_BAD_ALLOC);
  EXPECT_EQ(egl->live_replica_count(), 2);

  // A released replica parks in the warm pool...
  EXPECT_EQ(egl->eglReleaseMC(first), android_gl::EGL_TRUE);
  EXPECT_EQ(egl->live_replica_count(), 1);
  EXPECT_EQ(egl->warm_pool_size(), 1);

  // ...and the next mint reuses it instead of running dlforce again.
  const int third = egl->eglReInitializeMC();
  EXPECT_GT(third, 0);
  EXPECT_EQ(egl->warm_pool_size(), 0);
  EXPECT_EQ(egl->live_replica_count(), 2);

  // Releasing beyond the warm cap evicts the oldest parked replica (LRU):
  // the pool size stays at the cap, never above it.
  EXPECT_EQ(egl->eglReleaseMC(second), android_gl::EGL_TRUE);
  EXPECT_EQ(egl->eglReleaseMC(third), android_gl::EGL_TRUE);
  EXPECT_EQ(egl->live_replica_count(), 0);
  EXPECT_EQ(egl->warm_pool_size(), 1);

  // Unknown and already-released ids are explicit errors, not corruption.
  EXPECT_EQ(egl->eglReleaseMC(9999), android_gl::EGL_FALSE);
  EXPECT_EQ(egl->eglGetError(), android_gl::EGL_BAD_PARAMETER);
  EXPECT_EQ(egl->eglReleaseMC(third), android_gl::EGL_FALSE);

  // Shrinking the pool limit drains the overflow immediately.
  egl->set_replica_pool_limits(0, 0);
  EXPECT_EQ(egl->warm_pool_size(), 0);
  egl->set_replica_pool_limits(0, 2);  // restore the defaults for other tests
}

// --- Degraded mode: persistent faults end in a working shared context --------

TEST(RobustnessDegradedModeTest, PersistentDlforceFaultDegradesButRenders) {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  // Scope the contract evidence to this workload (the registry is
  // process-lifetime and other suites leave their own tallies behind).
  core::DiplomatRegistry::instance().clear_stats();
  util::FaultRegistry& faults = util::FaultRegistry::instance();
  faults.point("linker.dlforce").reset_stats();
  faults.point("linker.dlforce").arm_every(1);  // every replica mint fails
  {
    auto first = ios_gl::EAGLContext::init_with_api(
        ios_gl::EAGLRenderingAPI::kOpenGLES2, 24, 24);
    auto second = ios_gl::EAGLContext::init_with_api(
        ios_gl::EAGLRenderingAPI::kOpenGLES2, 24, 24);
    ASSERT_TRUE(first.is_ok());
    ASSERT_TRUE(second.is_ok());
    // Both contexts fell back to the refcounted shared connection.
    EXPECT_TRUE((*first)->degraded());
    EXPECT_TRUE((*second)->degraded());
    EXPECT_GE(faults.point("linker.dlforce").fires(), 3u);  // full retry rung

    // The degraded path still renders: storage + present on each context,
    // serialized under the shared connection.
    for (auto& context : {*first, *second}) {
      ios_gl::EAGLContext::set_current_context(context);
      glcore::GLuint rbo = 0;
      ios_gl::glGenRenderbuffers(1, &rbo);
      ios_gl::glBindRenderbuffer(glcore::GL_RENDERBUFFER, rbo);
      ASSERT_TRUE(context
                      ->renderbuffer_storage_from_drawable(
                          rbo, ios_gl::CAEAGLLayer{24, 24})
                      .is_ok());
      ASSERT_TRUE(context->present_renderbuffer(rbo).is_ok());
    }
    ios_gl::EAGLContext::clear_current_context();
  }
  faults.disarm_all();

  // With the fault gone, the next context mints a real replica again —
  // degradation is per-context, not a latched process state.
  auto recovered = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 24, 24);
  ASSERT_TRUE(recovered.is_ok());
  EXPECT_FALSE((*recovered)->degraded());
  ios_gl::EAGLContext::clear_current_context();

  analyze::Report report;
  analyze::check_diplomat_contracts(report);
  analyze::check_fault_safety(report);
  EXPECT_TRUE(report.clean()) << [&report] {
    std::ostringstream os;
    report.print(os);
    return os.str();
  }();
}

// --- Fault matrix: every catalog point, one-shot and every-Nth ----------------

class RobustnessFaultMatrixTest : public ::testing::Test {
 protected:
  // Boots a fresh stack, runs one EAGL context through storage + present
  // with the given fault armed, then asserts the process recovered: the
  // fault either was absorbed (retry / pool / degraded path) or surfaced as
  // a clean Status — and afterwards an unfaulted workload works.
  void sweep(const std::string& name, bool every_nth) {
    SCOPED_TRACE(name + (every_nth ? "=every:2" : "=once"));
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
    core::DiplomatRegistry::instance().clear_stats();
    util::FaultRegistry& faults = util::FaultRegistry::instance();
    util::FaultPoint& point = faults.point(name);
    point.reset_stats();
    if (every_nth) {
      point.arm_every(2);
    } else {
      point.arm_once();
    }
    {
      auto context = ios_gl::EAGLContext::init_with_api(
          ios_gl::EAGLRenderingAPI::kOpenGLES2, 16, 16);
      if (context.is_ok()) {
        ios_gl::EAGLContext::set_current_context(*context);
        glcore::GLuint rbo = 0;
        ios_gl::glGenRenderbuffers(1, &rbo);
        ios_gl::glBindRenderbuffer(glcore::GL_RENDERBUFFER, rbo);
        // Under injection these may fail with a clean Status; they must
        // never crash or leak a persona/lock.
        if ((*context)
                ->renderbuffer_storage_from_drawable(
                    rbo, ios_gl::CAEAGLLayer{16, 16})
                .is_ok()) {
          (void)(*context)->present_renderbuffer(rbo);
        }
        ios_gl::EAGLContext::clear_current_context();
      }
    }
    faults.disarm_all();

    // Recovery: the same workload, unfaulted, now succeeds non-degraded.
    auto recovered = ios_gl::EAGLContext::init_with_api(
        ios_gl::EAGLRenderingAPI::kOpenGLES2, 16, 16);
    ASSERT_TRUE(recovered.is_ok());
    EXPECT_FALSE((*recovered)->degraded());
    ios_gl::EAGLContext::clear_current_context();

    analyze::Report report;
    analyze::check_diplomat_contracts(report);
    analyze::check_fault_safety(report);
    EXPECT_TRUE(report.clean()) << [&report] {
      std::ostringstream os;
      report.print(os);
      return os.str();
    }();
  }
};

TEST_F(RobustnessFaultMatrixTest, EveryCatalogPointRecoversFromOneShot) {
  for (const std::string& name : util::FaultRegistry::catalog()) {
    sweep(name, /*every_nth=*/false);
  }
}

TEST_F(RobustnessFaultMatrixTest, EveryCatalogPointRecoversFromEveryNth) {
  for (const std::string& name : util::FaultRegistry::catalog()) {
    sweep(name, /*every_nth=*/true);
  }
}

TEST_F(RobustnessFaultMatrixTest, ConcurrentDispatchSurvivesPersonaInjection) {
  kernel::Kernel::instance().reset();
  core::DiplomatRegistry& registry = core::DiplomatRegistry::instance();
  registry.clear_stats();
  core::DiplomatEntry& entry = registry.entry("robustness.persona-storm",
                                              core::DiplomatPattern::kDirect);
  util::FaultPoint& point =
      util::FaultRegistry::instance().point("kernel.set_persona");
  point.reset_stats();
  point.arm_probability(200000, 11);  // 20% of persona syscalls fail

  constexpr int kThreads = 6;
  constexpr int kCallsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&entry] {
      kernel::Kernel::instance().register_current_thread(
          kernel::Persona::kIos);
      for (int i = 0; i < kCallsPerThread; ++i) {
        core::diplomat_call(entry, {}, [] {});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  point.disarm();

  // Every call completed despite the injected syscall failures...
  EXPECT_EQ(entry.calls.load(), static_cast<std::uint64_t>(kThreads) *
                                    kCallsPerThread);
  EXPECT_GT(point.fires(), 0u);
  // ...and the evidence shows balanced contracts and no leaked crossings.
  analyze::Report report;
  analyze::check_diplomat_contracts(report);
  analyze::check_fault_safety(report);
  EXPECT_TRUE(report.clean()) << [&report] {
    std::ostringstream os;
    report.print(os);
    return os.str();
  }();
}

// --- Fault-safety checker: seeded negatives ----------------------------------

TEST(RobustnessFaultSafetyTest, DetectsALeakedPersonaCrossing) {
  kernel::Kernel::instance().reset();
  kernel::Kernel::instance().register_current_thread(
      kernel::Persona::kAndroid);
  ASSERT_EQ(kernel::sys_set_persona(kernel::Persona::kIos), 0);
  analyze::Report leaked;
  analyze::check_fault_safety(leaked);
  EXPECT_TRUE(leaked.has_rule("fault.persona-leak"));

  ASSERT_EQ(kernel::sys_set_persona(kernel::Persona::kAndroid), 0);
  analyze::Report clean;
  analyze::check_fault_safety(clean);
  EXPECT_FALSE(clean.has_rule("fault.persona-leak"));
}

TEST(RobustnessFaultSafetyTest, DetectsALeakedLock) {
  util::LockOrderGraph& graph = util::LockOrderGraph::instance();
  graph.set_recording(false);
  graph.reset();
  graph.set_recording(true);
  util::OrderedMutex mutex(util::LockLevel::kLogEmit, "test.leaked-lock");
  mutex.lock();
  // Stop recording before running the checker so its own bookkeeping locks
  // don't add acquisitions; held_count() still sees the leak.
  graph.set_recording(false);
  analyze::Report leaked;
  analyze::check_fault_safety(leaked);
  EXPECT_TRUE(leaked.has_rule("fault.lock-leak"));

  mutex.unlock();
  analyze::Report clean;
  analyze::check_fault_safety(clean);
  EXPECT_FALSE(clean.has_rule("fault.lock-leak"));
  graph.reset();
}

// --- Stall channel: hang-class fault injection -------------------------------

TEST(RobustnessFaultStallTest, StallDelaysWithoutFailingAndRespectsCadence) {
  util::FaultPoint& point =
      util::FaultRegistry::instance().point("test.stall.delay");
  point.disarm();
  point.reset_stats();
  point.arm_stall(30, /*every_nth=*/2);
  // 1st traversal: off-cadence, no sleep, no failure.
  EXPECT_FALSE(point.should_fail());
  EXPECT_EQ(point.stalls(), 0u);
  // 2nd traversal: sleeps the armed 30 ms but still reports no failure —
  // the stall channel is orthogonal to the fire trigger.
  const std::int64_t start = now_ns();
  EXPECT_FALSE(point.should_fail());
  EXPECT_GE(now_ns() - start, 30'000'000);
  EXPECT_EQ(point.stalls(), 1u);
  EXPECT_EQ(point.fires(), 0u);
  // disarm_stall clears the channel; the next traversal is instant again.
  point.disarm_stall();
  EXPECT_FALSE(point.should_fail());
  EXPECT_EQ(point.stalls(), 1u);
  point.disarm();
}

TEST(RobustnessFaultStallTest, SuppressionScopeMasksTheStallChannel) {
  util::FaultPoint& point =
      util::FaultRegistry::instance().point("test.stall.suppress");
  point.disarm();
  point.reset_stats();
  point.arm_stall(40, 1);
  {
    // A recovery rung must not be delayable any more than it is failable:
    // suppressed traversals neither sleep nor tally.
    util::FaultSuppressionScope no_faults;
    EXPECT_FALSE(point.should_fail());
    EXPECT_EQ(point.stalls(), 0u);
  }
  EXPECT_FALSE(point.should_fail());
  EXPECT_EQ(point.stalls(), 1u);
  point.disarm();
}

TEST(RobustnessFaultConfigTest, StallGrammarArmsTheOrthogonalChannel) {
  util::FaultRegistry& registry = util::FaultRegistry::instance();
  util::FaultPoint& point = registry.point("test.cfg.stall");
  point.disarm();
  point.reset_stats();
  EXPECT_TRUE(registry.configure("test.cfg.stall=stall:25"));
  EXPECT_EQ(point.stall_ms(), 25u);
  // stall arms only its own channel: the fire trigger stays disarmed.
  EXPECT_EQ(point.trigger(), util::FaultTrigger::kDisarmed);
  EXPECT_TRUE(registry.configure("test.cfg.stall=stall:40:3"));
  EXPECT_EQ(point.stall_ms(), 40u);
  // Both channels arm independently from one spec — the forced-close
  // regression drives a stalled *and* failing traversal this way.
  EXPECT_TRUE(
      registry.configure("test.cfg.stall=stall:30,test.cfg.stall=every:2"));
  EXPECT_EQ(point.stall_ms(), 30u);
  EXPECT_EQ(point.trigger(), util::FaultTrigger::kEveryNth);
  // off clears both channels.
  EXPECT_TRUE(registry.configure("test.cfg.stall=off"));
  EXPECT_EQ(point.stall_ms(), 0u);
  EXPECT_EQ(point.trigger(), util::FaultTrigger::kDisarmed);
  // Rejected: zero/garbage milliseconds, zero cadence, missing argument.
  EXPECT_FALSE(registry.configure("test.cfg.stall=stall:0"));
  EXPECT_FALSE(registry.configure("test.cfg.stall=stall:abc"));
  EXPECT_FALSE(registry.configure("test.cfg.stall=stall:5:0"));
  EXPECT_FALSE(registry.configure("test.cfg.stall=stall"));
  EXPECT_EQ(point.stall_ms(), 0u);
  registry.disarm_all();
}

// --- Watchdog supervision ----------------------------------------------------

class RobustnessWatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Watchdog& watchdog = util::Watchdog::instance();
    watchdog.set_enabled(true);
    watchdog.set_budget_override_ms(0);
    watchdog.reset();
    util::FaultRegistry::instance().disarm_all();
  }
  void TearDown() override {
    util::Watchdog& watchdog = util::Watchdog::instance();
    watchdog.set_enabled(true);
    watchdog.set_budget_override_ms(0);
    watchdog.reset();
    util::FaultRegistry::instance().disarm_all();
  }

  static std::uint64_t counter(const char* name) {
    return trace::MetricsRegistry::instance().counter(name).value();
  }
};

TEST_F(RobustnessWatchdogTest, OverdueScopeEscalatesAndCleanFramesRecover) {
  util::Watchdog& watchdog = util::Watchdog::instance();
  watchdog.set_budget_override_ms(10);
  const std::uint64_t overdue_before = counter("watchdog.batch.overdue");
  const std::uint64_t up_before = counter("watchdog.rung_up");
  {
    WATCHDOG_SCOPE(util::WatchdogDomain::kBatch,
                   util::kWatchdogBatchBudgetMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  // Whether the monitor or the destructor noticed first, exactly one side
  // escalated (flagged_serial dedup): one overdue event, one rung.
  EXPECT_EQ(watchdog.rung(util::WatchdogDomain::kBatch), 1);
  EXPECT_TRUE(watchdog.degraded(util::WatchdogDomain::kBatch));
  EXPECT_EQ(counter("watchdog.batch.overdue"), overdue_before + 1);
  EXPECT_EQ(counter("watchdog.rung_up"), up_before + 1);

  const std::uint64_t down_before = counter("watchdog.rung_down");
  // The first frame after a stall absorbs the stalled-since-frame flag;
  // then recovery_frames() consecutive clean frames drop one rung.
  watchdog.note_frame();
  for (int i = 0; i < watchdog.recovery_frames(); ++i) {
    EXPECT_EQ(watchdog.rung(util::WatchdogDomain::kBatch), 1) << "frame " << i;
    watchdog.note_frame();
  }
  EXPECT_EQ(watchdog.rung(util::WatchdogDomain::kBatch), 0);
  EXPECT_EQ(counter("watchdog.rung_down"), down_before + 1);
}

TEST_F(RobustnessWatchdogTest, MonitorFlagsAStuckScopeWhileItStillRuns) {
  util::Watchdog& watchdog = util::Watchdog::instance();
  watchdog.set_budget_override_ms(10);
  util::WatchdogScope scope(util::WatchdogDomain::kCompositor,
                            util::kWatchdogCompositorBudgetMs);
  // The whole point of the monitor thread: escalation must not wait for
  // the stuck thread to come back and run its destructor. Poll the rung
  // while the scope is still open.
  const std::int64_t deadline = now_ns() + 2'000'000'000;
  while (watchdog.rung(util::WatchdogDomain::kCompositor) == 0 &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(watchdog.rung(util::WatchdogDomain::kCompositor), 0)
      << "monitor never flagged an overdue scope still in flight";
  EXPECT_TRUE(scope.overdue());
}

TEST_F(RobustnessWatchdogTest, DisabledWatchdogMakesScopesNoOps) {
  util::Watchdog& watchdog = util::Watchdog::instance();
  watchdog.set_budget_override_ms(5);
  watchdog.set_enabled(false);
  {
    WATCHDOG_SCOPE(util::WatchdogDomain::kBatch,
                   util::kWatchdogBatchBudgetMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(watchdog.rung(util::WatchdogDomain::kBatch), 0);
  watchdog.set_enabled(true);
}

// --- Recovery ladder: every rung fires under stall and climbs back -----------

class RobustnessLadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
    util::FaultRegistry::instance().disarm_all();
    util::Watchdog::instance().set_budget_override_ms(0);
    util::Watchdog::instance().reset();
    saved_workers_ = gpu::TileWorkerPool::instance().worker_count();
  }
  void TearDown() override {
    util::FaultRegistry::instance().disarm_all();
    util::Watchdog::instance().set_budget_override_ms(0);
    util::Watchdog::instance().reset();
    gpu::TileWorkerPool::instance().set_worker_count(saved_workers_);
    gpu::GpuDevice::instance().reset();
  }

  static std::uint64_t counter(const char* name) {
    return trace::MetricsRegistry::instance().counter(name).value();
  }

  // Clears hysteresis: absorb any stalled-since-frame flag, then feed
  // enough clean frames to walk every domain from kMaxRung back to 0.
  static void run_clean_frames() {
    util::Watchdog& watchdog = util::Watchdog::instance();
    const int frames =
        1 + util::Watchdog::kMaxRung * watchdog.recovery_frames();
    for (int i = 0; i < frames; ++i) watchdog.note_frame();
  }

  // One small frame through the device: a clear plus one triangle.
  static void render_frame() {
    gpu::GpuDevice& dev = gpu::GpuDevice::instance();
    const gpu::RenderTargetHandle target = dev.create_target(128, 128, false);
    dev.submit_clear(target, std::nullopt, true, {0.f, 0.f, 0.f, 1.f}, false,
                     1.f);
    gpu::ShadedVertex a, b, c;
    a.clip_pos = {-1.f, -1.f, 0.f, 1.f};
    b.clip_pos = {1.f, -1.f, 0.f, 1.f};
    c.clip_pos = {0.f, 1.f, 0.f, 1.f};
    dev.submit_draw(target, gpu::RasterState{}, gpu::PrimitiveKind::kTriangles,
                    {a, b, c});
    dev.submit_frame();
    dev.finish();
    EXPECT_TRUE(dev.destroy_target(target).is_ok());
  }

  int saved_workers_ = 1;
};

TEST_F(RobustnessLadderTest, StuckTilePhaseDegradesToSerialAndClimbsBack) {
  util::Watchdog& watchdog = util::Watchdog::instance();
  gpu::TileWorkerPool::instance().set_worker_count(2);
  watchdog.set_budget_override_ms(20);
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");
  fault.arm_stall(60, 1);  // every helper traversal sleeps past the budget
  // A helper that joins a phase stalls it past the budget and the phase
  // scope escalates. While the stall is armed the coordinator lets a woken
  // helper check in before it claims a tile, so even this 4-tile phase
  // should escalate on the first frame; the 20-frame allowance covers a
  // host too loaded to schedule the helper within that wait.
  const std::uint64_t stalls_before = fault.stalls();
  int frames = 0;
  while (frames < 20 && !watchdog.degraded(util::WatchdogDomain::kGpuPhase)) {
    render_frame();
    ++frames;
  }
  fault.disarm_stall();
  ASSERT_TRUE(watchdog.degraded(util::WatchdogDomain::kGpuPhase))
      << "no stalled phase escalated in 20 frames";
  // Each frame's coordinator stalls once at the frame-level probe; any
  // stall beyond that was a helper's, inside a phase.
  EXPECT_GT(fault.stalls() - stalls_before, static_cast<std::uint64_t>(frames));

  // While the rung is up, frames raster serial (and are counted as forced).
  const std::uint64_t forced_before = counter("watchdog.serial_forced");
  render_frame();
  EXPECT_GT(counter("watchdog.serial_forced"), forced_before);

  // Hysteresis climbs back to full-parallel: clean frames clear the rung
  // and the next frame is not forced serial.
  run_clean_frames();
  EXPECT_EQ(watchdog.rung(util::WatchdogDomain::kGpuPhase), 0);
  const std::uint64_t forced_recovered = counter("watchdog.serial_forced");
  render_frame();
  EXPECT_EQ(counter("watchdog.serial_forced"), forced_recovered);
}

TEST_F(RobustnessLadderTest, OverduePresentFenceForcesRetireAndDropsFrame) {
  util::Watchdog& watchdog = util::Watchdog::instance();
  gpu::GpuDevice& dev = gpu::GpuDevice::instance();
  gpu::TileWorkerPool::instance().set_worker_count(2);
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");

  const gpu::RenderTargetHandle target = dev.create_target(128, 128, false);
  dev.submit_clear(target, std::nullopt, true, {1.f, 0.f, 0.f, 1.f}, false,
                   1.f);
  const gpu::FenceHandle fence = dev.submit_fence();
  fault.arm_stall(120, 1);  // the in-flight frame stalls well past the wait
  dev.submit_frame();  // async: in_flight_ until the consumer retires it
  const std::uint64_t timeouts_before = counter("watchdog.present.timeouts");
  // The bounded wait gives up instead of hanging the present path: the
  // caller scans out the stale front buffer and drops the frame.
  EXPECT_FALSE(dev.wait_fence_for(fence, 10));
  EXPECT_EQ(counter("watchdog.present.timeouts"), timeouts_before + 1);
  EXPECT_TRUE(watchdog.degraded(util::WatchdogDomain::kPresent));
  fault.disarm_stall();

  // The frame was dropped, not lost: once the stall clears, the same fence
  // retires and the ladder climbs back.
  dev.finish();
  EXPECT_TRUE(dev.fence_signaled(fence));
  run_clean_frames();
  EXPECT_EQ(watchdog.rung(util::WatchdogDomain::kPresent), 0);
  EXPECT_TRUE(dev.destroy_target(target).is_ok());
}

TEST_F(RobustnessLadderTest, StalledBatchCrossingFallsBackToPlainCalls) {
  util::Watchdog& watchdog = util::Watchdog::instance();
  core::DiplomatEntry& entry = core::DiplomatRegistry::instance().entry(
      "glEnable", core::DiplomatPattern::kDirect);
  ASSERT_TRUE(entry.batchable);

  watchdog.note_stall(util::WatchdogDomain::kCrossing);
  const std::uint64_t fallback_before = counter("watchdog.batch.fallback");
  {
    core::BatchScope scope;
    // Degraded crossing: stop amortizing, run ordered plain calls.
    EXPECT_FALSE(core::batch_record(entry, {}, [] {}));
    EXPECT_EQ(core::pending_batched_calls(), 0u);
  }
  EXPECT_EQ(counter("watchdog.batch.fallback"), fallback_before + 1);

  // Hysteresis clears the rung and batching resumes.
  run_clean_frames();
  EXPECT_EQ(watchdog.rung(util::WatchdogDomain::kCrossing), 0);
  {
    core::BatchScope scope;
    EXPECT_TRUE(core::batch_record(entry, {}, [] {}));
    core::flush_current_batch(core::BatchFlushReason::kExplicit);
  }
}

// The PR's regression pin: a batch whose close both FAILS and STALLS must
// still restore the caller's persona inside a watchdog-backed bound — one
// stalled attempt, not kCrossingRetries of them serialized back to back.
TEST_F(RobustnessLadderTest, ForcedCloseStaysBoundedUnderStall) {
  util::Watchdog& watchdog = util::Watchdog::instance();
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("kernel.set_persona");
  const kernel::Persona caller =
      kernel::Kernel::instance().current_thread().persona();

  // Open a real crossing cleanly first; only the close is hostile.
  const std::uint64_t token = core::detail::batched_crossing_begin();
  ASSERT_NE(token, 0u);

  fault.reset_stats();
  watchdog.set_budget_override_ms(10);
  ASSERT_TRUE(util::FaultRegistry::instance().configure(
      "kernel.set_persona=stall:80,kernel.set_persona=every:1"));
  const std::uint64_t bounded_before = counter("watchdog.close.bounded");
  const std::uint64_t forced_before = counter("dispatch.batch.close_forced");
  EXPECT_FALSE(core::detail::batched_crossing_end(token, caller, 1));
  fault.disarm();
  watchdog.set_budget_override_ms(0);

  // Exactly one stalled+failed attempt burned the whole budget; the
  // deadline then cut the retry loop and the (suppressed, so neither
  // failable nor delayable) forced close repaired the persona.
  EXPECT_EQ(fault.fires(), 1u);
  EXPECT_EQ(fault.stalls(), 1u);
  EXPECT_EQ(counter("watchdog.close.bounded"), bounded_before + 1);
  EXPECT_EQ(counter("dispatch.batch.close_forced"), forced_before + 1);
  EXPECT_EQ(kernel::Kernel::instance().current_thread().persona(), caller);

  // The token was cleared: a fresh crossing opens and closes normally.
  const std::uint64_t next = core::detail::batched_crossing_begin();
  ASSERT_NE(next, 0u);
  EXPECT_TRUE(core::detail::batched_crossing_end(next, caller, 1));
  EXPECT_EQ(kernel::Kernel::instance().current_thread().persona(), caller);

  analyze::Report report;
  analyze::check_fault_safety(report);
  EXPECT_TRUE(report.clean()) << [&report] {
    std::ostringstream os;
    report.print(os);
    return os.str();
  }();
}

TEST_F(RobustnessLadderTest, EglRungSendsInitStraightToSharedFallback) {
  util::Watchdog& watchdog = util::Watchdog::instance();
  watchdog.note_stall(util::WatchdogDomain::kEgl);
  const std::uint64_t shared_before = counter("watchdog.egl.shared_forced");
  {
    // Rungs 1-2 (fresh/warm replica) are skipped entirely: no point burning
    // more stalled attempts when init work is already known to hang.
    auto context = ios_gl::EAGLContext::init_with_api(
        ios_gl::EAGLRenderingAPI::kOpenGLES2, 16, 16);
    ASSERT_TRUE(context.is_ok());
    EXPECT_TRUE((*context)->degraded());
    EXPECT_EQ(counter("watchdog.egl.shared_forced"), shared_before + 1);
    ios_gl::EAGLContext::clear_current_context();
  }

  // Clean frames clear the rung; the next init mints a real replica again.
  run_clean_frames();
  EXPECT_EQ(watchdog.rung(util::WatchdogDomain::kEgl), 0);
  auto recovered = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 16, 16);
  ASSERT_TRUE(recovered.is_ok());
  EXPECT_FALSE((*recovered)->degraded());
  EXPECT_EQ(counter("watchdog.egl.shared_forced"), shared_before + 1);
  ios_gl::EAGLContext::clear_current_context();
}

// --- Trace capture under fault injection -------------------------------------

// A batch whose crossing cannot open aborts to the plain single-call
// procedure (batch_test.cpp pins the atomicity). The capture layer must
// record what actually HAPPENED — four plain kCall records, no batched or
// flush records — and replaying that faulted trace with faults off must
// drive the live counters to exactly the same per-diplomat counts the
// aborted run produced.
TEST(TraceCaptureFaultTest, AbortedBatchCapturesAsPlainCallsAndReplaysTrue) {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  util::FaultRegistry::instance().disarm_all();
  core::DiplomatEntry& entry = core::DiplomatRegistry::instance().entry(
      "glEnable", core::DiplomatPattern::kDirect);
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("kernel.set_persona");

  const std::string path =
      std::string(::testing::TempDir()) + "cyt_fault_abort.cyt";
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  ASSERT_TRUE(recorder.start(path).is_ok());
  const std::uint64_t live_before = entry.calls.load();
  {
    core::BatchScope scope;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(core::batch_record(entry, {}, [] {}));
    }
    // Every set_persona now fails: the crossing cannot open and the whole
    // batch falls back to single calls, under capture.
    fault.disarm();
    fault.arm_every(1);
    core::flush_current_batch(core::BatchFlushReason::kExplicit);
    fault.disarm();
  }
  const std::uint64_t live_calls = entry.calls.load() - live_before;
  ASSERT_TRUE(recorder.stop().is_ok());
  EXPECT_EQ(live_calls, 4u);

  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  std::uint64_t plain = 0, batched = 0, flushes = 0;
  for (const trace::CytRecord& record : parsed->records) {
    if (record.type != static_cast<std::uint8_t>(trace::CytRecordType::kEvent))
      continue;
    switch (static_cast<trace::CytEventKind>(record.kind)) {
      case trace::CytEventKind::kCall: ++plain; break;
      case trace::CytEventKind::kBatchedCall: ++batched; break;
      case trace::CytEventKind::kBatchFlush: ++flushes; break;
      default: break;
    }
  }
  EXPECT_EQ(plain, 4u);
  EXPECT_EQ(batched, 0u);
  EXPECT_EQ(flushes, 0u);

  // Replay with faults off: same per-diplomat counters as the live run.
  const std::uint64_t replay_before = entry.calls.load();
  auto stats = core::replay_trace(*parsed, {});
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(entry.calls.load() - replay_before, live_calls);
  EXPECT_EQ(core::trace_call_counts(*parsed).at("glEnable"), live_calls);
}

}  // namespace
}  // namespace cycada
