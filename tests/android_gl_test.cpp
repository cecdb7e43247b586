#include "android_gl/egl.h"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <string>
#include <thread>

#include "android_gl/surface_flinger.h"
#include "android_gl/ui_wrapper.h"
#include "android_gl/vendor.h"
#include "gpu/device.h"
#include "kernel/kernel.h"

namespace cycada::android_gl {
namespace {

class AndroidGlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel::Kernel::instance().reset();
    gpu::GpuDevice::instance().reset();
    gmem::GrallocAllocator::instance().reset();
    linker::Linker::instance().reset();
    // Register main thread first so it is the thread-group leader.
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kAndroid);
    egl_ = open_android_egl();
    ASSERT_NE(egl_, nullptr);
    ASSERT_EQ(egl_->eglInitialize(), EGL_TRUE);
  }

  AndroidEgl* egl_ = nullptr;
};

TEST_F(AndroidGlTest, InitializeIsIdempotent) {
  EXPECT_EQ(egl_->eglInitialize(), EGL_TRUE);
  EXPECT_NE(egl_->gles(), nullptr);
}

TEST_F(AndroidGlTest, RenderAndSwapWindowSurface) {
  EglSurface* surface = egl_->eglCreateWindowSurface(16, 16);
  ASSERT_NE(surface, nullptr);
  EglContext* context = egl_->eglCreateContext(2);
  ASSERT_NE(context, nullptr);
  ASSERT_EQ(egl_->eglMakeCurrent(surface, context), EGL_TRUE);

  glcore::GlesEngine& gl = *egl_->gles();
  gl.glViewport(0, 0, 16, 16);
  gl.glClearColor(1.f, 0.f, 0.f, 1.f);
  gl.glClear(glcore::GL_COLOR_BUFFER_BIT);
  ASSERT_EQ(egl_->eglSwapBuffers(surface), EGL_TRUE);
  // After the swap, the front buffer holds the red frame.
  EXPECT_EQ(const_cast<gmem::GraphicBuffer&>(surface->front_buffer())
                .pixels32()[0],
            0xff0000ffu);

  // Rendering now goes to the other buffer; another clear + swap shows it.
  gl.glClearColor(0.f, 1.f, 0.f, 1.f);
  gl.glClear(glcore::GL_COLOR_BUFFER_BIT);
  ASSERT_EQ(egl_->eglSwapBuffers(surface), EGL_TRUE);
  EXPECT_EQ(const_cast<gmem::GraphicBuffer&>(surface->front_buffer())
                .pixels32()[0],
            0xff00ff00u);
}

TEST_F(AndroidGlTest, SecondGlesVersionIsRejectedPerProcess) {
  // The paper-§8 restriction: one GLES API version per vendor connection.
  EglContext* v2 = egl_->eglCreateContext(2);
  ASSERT_NE(v2, nullptr);
  EglContext* v2b = egl_->eglCreateContext(2);
  EXPECT_NE(v2b, nullptr);  // same version: fine
  EglContext* v1 = egl_->eglCreateContext(1);
  EXPECT_EQ(v1, nullptr);
  EXPECT_EQ(egl_->eglGetError(), EGL_BAD_MATCH);
}

TEST_F(AndroidGlTest, ContextAffinityRuleRejectsOtherThreads) {
  // Paper §7: a context may be used by a thread only "if it or its thread
  // group leader created the context". A worker-created context is off
  // limits to every other thread — including the leader.
  EglSurface* surface = egl_->eglCreateWindowSurface(8, 8);
  EglContext* context = nullptr;
  std::thread creator([&] {
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kAndroid);
    context = egl_->eglCreateContext(2);
  });
  creator.join();
  ASSERT_NE(context, nullptr);

  EGLBoolean result = EGL_TRUE;
  EGLint error = EGL_SUCCESS;
  std::thread other([&] {
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kAndroid);
    result = egl_->eglMakeCurrent(surface, context);
    error = egl_->eglGetError();
  });
  other.join();
  EXPECT_EQ(result, EGL_FALSE);
  EXPECT_EQ(error, EGL_BAD_ACCESS);
  EXPECT_EQ(egl_->eglMakeCurrent(surface, context), EGL_FALSE);
  EXPECT_EQ(egl_->eglGetError(), EGL_BAD_ACCESS);

  // A LEADER-created context, by contrast, is usable from any thread.
  EglContext* leader_context = egl_->eglCreateContext(2);
  ASSERT_NE(leader_context, nullptr);
  EGLBoolean worker_result = EGL_FALSE;
  std::thread worker([&] {
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kAndroid);
    worker_result = egl_->eglMakeCurrent(surface, leader_context);
  });
  worker.join();
  EXPECT_EQ(worker_result, EGL_TRUE);
}

TEST_F(AndroidGlTest, MainThreadContextUsableByCreator) {
  EglSurface* surface = egl_->eglCreateWindowSurface(8, 8);
  EglContext* context = egl_->eglCreateContext(2);
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(egl_->eglMakeCurrent(surface, context), EGL_TRUE);
  EXPECT_EQ(egl_->eglGetCurrentContext(), context);
  EXPECT_EQ(egl_->eglMakeCurrent(nullptr, nullptr), EGL_TRUE);
  EXPECT_EQ(egl_->eglGetCurrentContext(), nullptr);
}

TEST_F(AndroidGlTest, ImpersonationSatisfiesAffinity) {
  // An unrelated thread CAN use the context while impersonating its
  // creator — the exact mechanism Cycada relies on (paper §7.1).
  EglSurface* surface = egl_->eglCreateWindowSurface(8, 8);
  EglContext* context = nullptr;
  kernel::Tid creator_tid = kernel::kInvalidTid;
  std::thread creator([&] {
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kAndroid);
    creator_tid = kernel::sys_gettid();
    context = egl_->eglCreateContext(2);
  });
  creator.join();
  ASSERT_NE(context, nullptr);

  EGLBoolean denied = EGL_TRUE, allowed = EGL_FALSE;
  std::thread other([&] {
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kAndroid);
    denied = egl_->eglMakeCurrent(surface, context);
    (void)egl_->eglGetError();
    kernel::sys_impersonate(creator_tid);
    allowed = egl_->eglMakeCurrent(surface, context);
    kernel::sys_impersonate(kernel::kInvalidTid);
  });
  other.join();
  EXPECT_EQ(denied, EGL_FALSE);
  EXPECT_EQ(allowed, EGL_TRUE);
}

TEST_F(AndroidGlTest, EglImageLifecycle) {
  auto buffer = gmem::GrallocAllocator::instance().allocate(
      4, 4, PixelFormat::kRgba8888, gmem::kUsageGpuTexture);
  ASSERT_TRUE(buffer.is_ok());
  glcore::EglImage* image = egl_->eglCreateImageKHR((*buffer)->id());
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(image->buffer.get(), buffer->get());
  EXPECT_EQ(egl_->eglDestroyImageKHR(image), EGL_TRUE);
  EXPECT_EQ(egl_->eglDestroyImageKHR(image), EGL_FALSE);
  EXPECT_EQ(egl_->eglCreateImageKHR(999999), nullptr);
}

TEST_F(AndroidGlTest, MultiContextCreatesIsolatedReplicas) {
  // Stock path locks the process to one version...
  EglContext* v2 = egl_->eglCreateContext(2);
  ASSERT_NE(v2, nullptr);
  ASSERT_EQ(egl_->eglCreateContext(1), nullptr);
  (void)egl_->eglGetError();

  // ...but an MC replica is a fresh vendor stack: a v1 connection can now
  // coexist in the same process (paper §8).
  const int replica_id = egl_->eglReInitializeMC();
  ASSERT_GT(replica_id, 0);
  EglConnection* replica = egl_->connection_by_id(replica_id);
  ASSERT_NE(replica, nullptr);
  ASSERT_NE(replica->ui_wrapper, nullptr);
  EXPECT_NE(replica->engine, egl_->connection_by_id(0)->engine);
  ASSERT_TRUE(replica->ui_wrapper->initialize(1, 8, 8).is_ok());
  EXPECT_EQ(replica->ui_wrapper->engine(), replica->engine);

  // The vendor stack was genuinely re-instanced: three vendor libraries
  // loaded twice each (libui_wrapper + GLES + nvrm + nvos).
  EXPECT_EQ(linker::Linker::instance().live_copy_count(kVendorGlesLib), 2);
  EXPECT_EQ(linker::Linker::instance().live_copy_count(kNvOsLib), 2);
}

TEST_F(AndroidGlTest, MultiContextTlsSwitching) {
  const int a = egl_->eglReInitializeMC();
  const int b = egl_->eglReInitializeMC();
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);
  EXPECT_EQ(egl_->current_connection(), egl_->connection_by_id(b));
  EXPECT_EQ(egl_->eglSwitchMC(a), EGL_TRUE);
  EXPECT_EQ(egl_->current_connection(), egl_->connection_by_id(a));
  EXPECT_EQ(egl_->eglSwitchMC(0), EGL_TRUE);
  EXPECT_EQ(egl_->current_connection(), egl_->connection_by_id(0));
  EXPECT_EQ(egl_->eglSwitchMC(12345), EGL_FALSE);

  // Get/SetTLSMC round-trips the per-thread binding.
  void* slots[2] = {nullptr, nullptr};
  ASSERT_EQ(egl_->eglSwitchMC(a), EGL_TRUE);
  ASSERT_EQ(egl_->eglGetTLSMC(slots, 2), EGL_TRUE);
  EXPECT_EQ(slots[0], egl_->connection_by_id(a));
  ASSERT_EQ(egl_->eglSwitchMC(0), EGL_TRUE);
  ASSERT_EQ(egl_->eglSetTLSMC(slots, 2), EGL_TRUE);
  EXPECT_EQ(egl_->current_connection(), egl_->connection_by_id(a));
}

class UiWrapperTest : public AndroidGlTest {
 protected:
  void SetUp() override {
    AndroidGlTest::SetUp();
    replica_id_ = egl_->eglReInitializeMC();
    ASSERT_GT(replica_id_, 0);
    wrapper_ = egl_->connection_by_id(replica_id_)->ui_wrapper;
    ASSERT_NE(wrapper_, nullptr);
  }
  int replica_id_ = 0;
  UiWrapper* wrapper_ = nullptr;
};

TEST_F(UiWrapperTest, InitializeCreatesLayerAndContext) {
  ASSERT_TRUE(wrapper_->initialize(2, 32, 32).is_ok());
  EXPECT_EQ(wrapper_->width(), 32);
  EXPECT_EQ(wrapper_->engine()->current_context_id(), wrapper_->context_id());
  EXPECT_FALSE(wrapper_->initialize(2, 32, 32).is_ok());  // double init
  EXPECT_FALSE(wrapper_->initialize(2, -1, 0).is_ok());
}

TEST_F(UiWrapperTest, EaglStylePresentPath) {
  // The full EAGL rendering pattern (paper §5): render into an offscreen
  // FBO whose renderbuffer is backed by a GraphicBuffer, then
  // draw_fbo_tex presents it to the "screen".
  ASSERT_TRUE(wrapper_->initialize(2, 16, 16).is_ok());
  glcore::GlesEngine& gl = *wrapper_->engine();

  auto drawable = wrapper_->create_drawable_buffer(16, 16);
  ASSERT_TRUE(drawable.is_ok());
  glcore::GLuint fbo = 0, rbo = 0;
  gl.glGenFramebuffers(1, &fbo);
  gl.glGenRenderbuffers(1, &rbo);
  gl.glBindRenderbuffer(glcore::GL_RENDERBUFFER, rbo);
  ASSERT_TRUE(wrapper_->bind_renderbuffer(rbo, *drawable).is_ok());
  gl.glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
  gl.glFramebufferRenderbuffer(glcore::GL_FRAMEBUFFER,
                               glcore::GL_COLOR_ATTACHMENT0,
                               glcore::GL_RENDERBUFFER, rbo);
  ASSERT_EQ(gl.glCheckFramebufferStatus(glcore::GL_FRAMEBUFFER),
            glcore::GL_FRAMEBUFFER_COMPLETE);
  gl.glViewport(0, 0, 16, 16);
  gl.glClearColor(0.f, 0.f, 1.f, 1.f);
  gl.glClear(glcore::GL_COLOR_BUFFER_BIT);

  ASSERT_TRUE(wrapper_->draw_fbo_tex(*drawable).is_ok());
  ASSERT_TRUE(wrapper_->swap_buffers().is_ok());
  const Image screen = wrapper_->front_snapshot();
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_EQ(screen.at(x, y), 0xffff0000u) << x << "," << y;  // blue
    }
  }
  // Caller state was preserved: FBO still bound.
  glcore::GLint bound = 0;
  gl.glGetIntegerv(glcore::GL_FRAMEBUFFER_BINDING, &bound);
  EXPECT_EQ(static_cast<glcore::GLuint>(bound), fbo);
}

// The present is a plain 1:1 blit whatever raster state the app left on,
// and it hands that state back unchanged. Each case leaves one piece of
// state set so that, if it leaked into the present, the window would not
// show the frame: a blend that keeps the destination, a depth test that
// never passes, a one-pixel scissor, back-face culling (which culls the
// quad's winding), a colour mask that drops green and alpha, and a bound
// VBO (through which the quad's client-memory pointers would be offsets).
TEST_F(UiWrapperTest, PresentIgnoresAndKeepsCallerRasterState) {
  using namespace glcore;
  struct Case {
    const char* name;
    GLenum cap;  // 0: no cap, the case sets only the mask or the VBO
    void (*set)(GlesEngine&);
  };
  const Case cases[] = {
      {"blend", GL_BLEND,
       [](GlesEngine& gl) { gl.glBlendFunc(GL_ZERO, GL_ONE); }},
      {"depth", GL_DEPTH_TEST,
       [](GlesEngine& gl) { gl.glDepthFunc(GL_NEVER); }},
      {"scissor", GL_SCISSOR_TEST,
       [](GlesEngine& gl) { gl.glScissor(0, 0, 1, 1); }},
      {"cull", GL_CULL_FACE, [](GlesEngine& gl) { gl.glCullFace(GL_BACK); }},
      {"colour mask", 0,
       [](GlesEngine& gl) {
         gl.glColorMask(GL_TRUE, GL_FALSE, GL_TRUE, GL_FALSE);
       }},
      {"vbo", 0,
       [](GlesEngine& gl) {
         GLuint vbo = 0;
         gl.glGenBuffers(1, &vbo);
         gl.glBindBuffer(GL_ARRAY_BUFFER, vbo);
         const float data[12] = {};
         gl.glBufferData(GL_ARRAY_BUFFER, sizeof(data), data, GL_STATIC_DRAW);
       }},
  };
  for (const int version : {1, 2}) {
    UiWrapper* wrapper = version == 2
        ? wrapper_
        : egl_->connection_by_id(egl_->eglReInitializeMC())->ui_wrapper;
    ASSERT_NE(wrapper, nullptr);
    ASSERT_TRUE(wrapper->initialize(version, 16, 16).is_ok());
    GlesEngine& gl = *wrapper->engine();
    auto drawable = wrapper->create_drawable_buffer(16, 16);
    ASSERT_TRUE(drawable.is_ok());
    GLuint fbo = 0, rbo = 0;
    gl.glGenFramebuffers(1, &fbo);
    gl.glGenRenderbuffers(1, &rbo);
    gl.glBindRenderbuffer(GL_RENDERBUFFER, rbo);
    ASSERT_TRUE(wrapper->bind_renderbuffer(rbo, *drawable).is_ok());
    gl.glBindFramebuffer(GL_FRAMEBUFFER, fbo);
    gl.glFramebufferRenderbuffer(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                                 GL_RENDERBUFFER, rbo);
    gl.glViewport(0, 0, 16, 16);

    std::uint32_t previous = 0;
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      const Case& c = cases[i];
      const bool masked = std::string(c.name) == "colour mask";
      const bool vbo = std::string(c.name) == "vbo";
      SCOPED_TRACE(std::string(c.name) + " on GLES" + std::to_string(version));
      // A new colour per case, so the stale back buffer never matches.
      const float shade = static_cast<float>(i + 1) / 8.f;
      gl.glClearColor(shade, 1.f - shade, 0.5f, 1.f);
      gl.glClear(GL_COLOR_BUFFER_BIT);
      if (c.cap != 0) gl.glEnable(c.cap);
      c.set(gl);

      ASSERT_TRUE(wrapper->draw_fbo_tex(*drawable).is_ok());
      ASSERT_TRUE(wrapper->swap_buffers().is_ok());
      // The present flushed the clear into the app's frame.
      const std::uint32_t frame =
          gmem::GrallocAllocator::instance().find(*drawable)->pixels32()[0];
      EXPECT_NE(frame, previous);
      previous = frame;
      EXPECT_EQ(Image::diff_count(wrapper->front_snapshot(),
                                  Image(16, 16, frame)),
                0u);

      for (const GLenum cap :
           {GL_BLEND, GL_DEPTH_TEST, GL_SCISSOR_TEST, GL_CULL_FACE}) {
        EXPECT_EQ(gl.glIsEnabled(cap), cap == c.cap ? GL_TRUE : GL_FALSE)
            << std::hex << cap;
      }
      GLint mask[4] = {-1, -1, -1, -1};
      gl.glGetIntegerv(GL_COLOR_WRITEMASK, mask);
      EXPECT_EQ(mask[0], 1);
      EXPECT_EQ(mask[1], masked ? 0 : 1);
      EXPECT_EQ(mask[2], 1);
      EXPECT_EQ(mask[3], masked ? 0 : 1);
      GLint bound = 0;
      gl.glGetIntegerv(GL_FRAMEBUFFER_BINDING, &bound);
      EXPECT_EQ(static_cast<GLuint>(bound), fbo);
      GLint array_buffer = -1;
      gl.glGetIntegerv(GL_ARRAY_BUFFER_BINDING, &array_buffer);
      EXPECT_EQ(array_buffer != 0, vbo);
      EXPECT_EQ(gl.glGetError(), GL_NO_ERROR);

      if (c.cap != 0) gl.glDisable(c.cap);
      gl.glColorMask(GL_TRUE, GL_TRUE, GL_TRUE, GL_TRUE);
      gl.glBindBuffer(GL_ARRAY_BUFFER, 0);
    }
  }
}

TEST_F(UiWrapperTest, MakeCurrentEnforcesAffinity) {
  // Initialize on a worker so the replica context is NOT leader-owned.
  Status init_status = Status::internal("not run");
  kernel::Tid creator_tid = kernel::kInvalidTid;
  std::thread creator([&] {
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kAndroid);
    creator_tid = kernel::sys_gettid();
    init_status = wrapper_->initialize(2, 8, 8);
  });
  creator.join();
  ASSERT_TRUE(init_status.is_ok());

  // The leader (and any other thread) is denied...
  EXPECT_EQ(wrapper_->make_current().code(), StatusCode::kPermissionDenied);
  // ...unless impersonating the creator (paper §7.1).
  kernel::sys_impersonate(creator_tid);
  EXPECT_TRUE(wrapper_->make_current().is_ok());
  kernel::sys_impersonate(kernel::kInvalidTid);
}

TEST_F(UiWrapperTest, TlsRoundTripMovesCurrentContext) {
  ASSERT_TRUE(wrapper_->initialize(2, 8, 8).is_ok());
  auto tls = wrapper_->get_tls();
  ASSERT_EQ(tls.size(), 1u);
  EXPECT_NE(tls[0], nullptr);
  ASSERT_TRUE(wrapper_->clear_current().is_ok());
  EXPECT_EQ(wrapper_->get_tls()[0], nullptr);
  ASSERT_TRUE(wrapper_->set_tls(tls).is_ok());
  EXPECT_EQ(wrapper_->engine()->current_context_id(), wrapper_->context_id());
}

TEST_F(UiWrapperTest, CopyTexBufReadsBackTexels) {
  ASSERT_TRUE(wrapper_->initialize(2, 8, 8).is_ok());
  glcore::GlesEngine& gl = *wrapper_->engine();
  glcore::GLuint tex = 0;
  gl.glGenTextures(1, &tex);
  gl.glBindTexture(glcore::GL_TEXTURE_2D, tex);
  std::vector<std::uint32_t> texels(8 * 8, 0xff00ff00u);
  gl.glTexImage2D(glcore::GL_TEXTURE_2D, 0, glcore::GL_RGBA, 8, 8, 0,
                  glcore::GL_RGBA, glcore::GL_UNSIGNED_BYTE, texels.data());
  auto dst = wrapper_->create_drawable_buffer(8, 8);
  ASSERT_TRUE(dst.is_ok());
  ASSERT_TRUE(wrapper_->copy_tex_buf(tex, *dst).is_ok());
  auto buffer = gmem::GrallocAllocator::instance().find(*dst);
  ASSERT_NE(buffer, nullptr);
  EXPECT_EQ(buffer->pixels32()[0], 0xff00ff00u);
  EXPECT_EQ(buffer->pixels32()[7 * buffer->stride_px() + 7], 0xff00ff00u);
}

TEST_F(UiWrapperTest, ReplicaGlobalsHaveDistinctAddresses) {
  const int second = egl_->eglReInitializeMC();
  ASSERT_GT(second, 0);
  linker::Linker& linker = linker::Linker::instance();
  EglConnection* a = egl_->connection_by_id(replica_id_);
  EglConnection* b = egl_->connection_by_id(second);
  void* ga = linker.dlsym(a->library, "replica_global");
  void* gb = linker.dlsym(b->library, "replica_global");
  void* va = linker.dlsym(a->library, "vendor_global");
  void* vb = linker.dlsym(b->library, "vendor_global");
  EXPECT_NE(ga, nullptr);
  EXPECT_NE(ga, gb);
  EXPECT_NE(va, nullptr);
  EXPECT_NE(va, vb);
}



TEST_F(AndroidGlTest, PbufferSurfaceIsSingleBuffered) {
  EglSurface* pbuffer = egl_->eglCreatePbufferSurface(8, 8);
  ASSERT_NE(pbuffer, nullptr);
  EglContext* context = egl_->eglCreateContext(2);
  ASSERT_EQ(egl_->eglMakeCurrent(pbuffer, context), EGL_TRUE);
  glcore::GlesEngine& gl = *egl_->gles();
  gl.glViewport(0, 0, 8, 8);
  gl.glClearColor(0.f, 0.f, 1.f, 1.f);
  gl.glClear(glcore::GL_COLOR_BUFFER_BIT);
  // A pbuffer has one buffer: swapping is a no-op flip onto itself, and the
  // rendered pixels are immediately the "front" content.
  ASSERT_EQ(egl_->eglSwapBuffers(pbuffer), EGL_TRUE);
  EXPECT_EQ(const_cast<gmem::GraphicBuffer&>(pbuffer->front_buffer())
                .pixels32()[0],
            0xffff0000u);
  EXPECT_EQ(&pbuffer->front_buffer(), &pbuffer->back_buffer());
  EXPECT_EQ(egl_->eglDestroySurface(pbuffer), EGL_TRUE);
  EXPECT_EQ(egl_->eglDestroySurface(pbuffer), EGL_FALSE);
}

class SurfaceFlingerTest : public AndroidGlTest {
 protected:
  void SetUp() override {
    AndroidGlTest::SetUp();
    SurfaceFlinger::instance().reset();
  }
};

TEST_F(SurfaceFlingerTest, ComposesLayersInZOrder) {
  // Two windows: red behind, green (smaller) in front at an offset.
  EglSurface* back = egl_->eglCreateWindowSurface(32, 32);
  EglSurface* front = egl_->eglCreateWindowSurface(8, 8);
  EglContext* context = egl_->eglCreateContext(2);
  ASSERT_NE(context, nullptr);

  const auto render_to = [&](EglSurface* surface, float r, float g, float b) {
    ASSERT_EQ(egl_->eglMakeCurrent(surface, context), EGL_TRUE);
    glcore::GlesEngine& gl = *egl_->gles();
    gl.glViewport(0, 0, surface->width(), surface->height());
    gl.glClearColor(r, g, b, 1.f);
    gl.glClear(glcore::GL_COLOR_BUFFER_BIT);
    ASSERT_EQ(egl_->eglSwapBuffers(surface), EGL_TRUE);
  };
  render_to(back, 1.f, 0.f, 0.f);
  render_to(front, 0.f, 1.f, 0.f);

  SurfaceFlinger& flinger = SurfaceFlinger::instance();
  flinger.add_layer(back, 0, 0, /*z=*/0);
  const auto top = flinger.add_layer(front, 4, 4, /*z=*/1);
  EXPECT_EQ(flinger.layer_count(), 2u);

  Image display = flinger.compose(32, 32);
  EXPECT_EQ(display.at(0, 0), 0xff0000ffu);    // red visible at the corner
  EXPECT_EQ(display.at(6, 6), 0xff00ff00u);    // green on top in the middle
  EXPECT_EQ(display.at(20, 20), 0xff0000ffu);  // red beyond the green window

  // Translucent overlay blends with what is underneath.
  ASSERT_TRUE(flinger.set_layer_alpha(top, 0.5f).is_ok());
  display = flinger.compose(32, 32);
  const Color blended = unpack_rgba8888(display.at(6, 6));
  EXPECT_NEAR(blended.r, 0.5f, 0.02f);
  EXPECT_NEAR(blended.g, 0.5f, 0.02f);

  // Moving and removing layers.
  ASSERT_TRUE(flinger.set_layer_position(top, 24, 24).is_ok());
  display = flinger.compose(32, 32);
  EXPECT_EQ(display.at(6, 6), 0xff0000ffu);
  ASSERT_TRUE(flinger.remove_layer(top).is_ok());
  EXPECT_FALSE(flinger.remove_layer(top).is_ok());
  EXPECT_EQ(flinger.layer_count(), 1u);
}

TEST_F(SurfaceFlingerTest, OffscreenLayersAreClipped) {
  EglSurface* surface = egl_->eglCreateWindowSurface(16, 16);
  EglContext* context = egl_->eglCreateContext(2);
  ASSERT_EQ(egl_->eglMakeCurrent(surface, context), EGL_TRUE);
  glcore::GlesEngine& gl = *egl_->gles();
  gl.glViewport(0, 0, 16, 16);
  gl.glClearColor(1.f, 1.f, 1.f, 1.f);
  gl.glClear(glcore::GL_COLOR_BUFFER_BIT);
  ASSERT_EQ(egl_->eglSwapBuffers(surface), EGL_TRUE);

  SurfaceFlinger& flinger = SurfaceFlinger::instance();
  flinger.add_layer(surface, -8, 28, 0);  // straddles two display edges
  const Image display = flinger.compose(32, 32);
  EXPECT_EQ(display.at(4, 30), 0xffffffffu);  // visible part
  EXPECT_EQ(display.at(20, 20), 0xff000000u); // background elsewhere
}

}  // namespace
}  // namespace cycada::android_gl
