#include "android_gl/ui_wrapper.h"

#include <cstring>
#include <iterator>

#include "android_gl/vendor.h"
#include "gpu/device.h"
#include "kernel/kernel.h"
#include "kernel/libc.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/log.h"
#include "util/watchdog.h"

namespace cycada::android_gl {

namespace {
gpu::GpuDevice& device() { return gpu::GpuDevice::instance(); }

constexpr char kPresentVs[] =
    "attribute vec4 a_position; attribute vec2 a_texcoord;"
    "uniform mat4 u_mvp; varying vec2 v_uv;"
    "void main() { gl_Position = u_mvp * a_position; v_uv = a_texcoord; }";
constexpr char kPresentFs[] =
    "uniform sampler2D u_tex; varying vec2 v_uv;"
    "void main() { gl_FragColor = texture2D(u_tex, v_uv); }";
}  // namespace

bool android_thread_affinity_ok(kernel::Tid creator) {
  const kernel::Tid caller = kernel::sys_gettid();
  return caller == creator ||
         creator == kernel::Kernel::instance().main_tid();
}

UiWrapper::UiWrapper(linker::LoadContext& context) {
  // Bind to THIS replica's vendor GLES copy (the dependency edge that makes
  // "the libui_wrapper functionality use the same replica of GLES as the
  // gralloc functions" — paper §8.2).
  auto* vendor =
      static_cast<VendorGles*>(context.dep(kVendorGlesLib));
  if (vendor != nullptr) engine_ = &vendor->engine();
}

UiWrapper::~UiWrapper() {
  if (engine_ != nullptr && context_ != glcore::kNoContext) {
    (void)engine_->destroy_context(context_);
  }
  for (gpu::RenderTargetHandle target : targets_) {
    if (target != gpu::kNoHandle) (void)device().destroy_target(target);
  }
}

void* UiWrapper::symbol(std::string_view name) {
  if (name == "ui_wrapper") return this;
  if (name == "replica_global") return &replica_global_;
  return nullptr;
}

std::vector<std::string> UiWrapper::exported_symbols() const {
  return {"ui_wrapper", "replica_global"};
}

Status UiWrapper::initialize(int gles_version, int width, int height) {
  if (engine_ == nullptr) {
    return Status::failed_precondition("vendor GLES missing from replica");
  }
  if (context_ != glcore::kNoContext) {
    return Status::failed_precondition("already initialized");
  }
  if (width <= 0 || height <= 0) {
    return Status::invalid_argument("bad layer dimensions");
  }
  // Same fault point as the stock wrapper's eglCreateContext, so injected
  // vendor-context failures exercise the bridge's retry/degradation ladder.
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("egl.create_context");
  if (fault.should_fail()) {
    return Status::resource_exhausted("injected fault: egl.create_context");
  }
  gles_version_ = gles_version;
  width_ = width;
  height_ = height;
  for (int i = 0; i < 2; ++i) {
    auto buffer = gmem::GrallocAllocator::instance().allocate(
        width, height, PixelFormat::kRgba8888,
        gmem::kUsageGpuRenderTarget | gmem::kUsageComposer);
    CYCADA_RETURN_IF_ERROR(buffer.status());
    buffers_[i] = std::move(buffer.value());
    targets_[i] = device().create_target_external(
        buffers_[i]->pixels32(), width, height, buffers_[i]->stride_px(),
        /*with_depth=*/true);
  }
  context_ = engine_->create_context(gles_version);
  if (context_ == glcore::kNoContext) {
    return Status::invalid_argument("unsupported GLES version");
  }
  creator_ = kernel::sys_gettid();
  CYCADA_RETURN_IF_ERROR(engine_->make_current(context_, targets_[back_]));
  engine_->glViewport(0, 0, width, height);
  return Status::ok();
}

void UiWrapper::teardown() {
  if (engine_ != nullptr && context_ != glcore::kNoContext) {
    if (engine_->current_context_id() == context_) {
      (void)engine_->make_current(glcore::kNoContext, gpu::kNoHandle);
    }
    (void)engine_->destroy_context(context_);
  }
  context_ = glcore::kNoContext;
  for (gpu::RenderTargetHandle& target : targets_) {
    if (target != gpu::kNoHandle) {
      (void)device().destroy_target(target);
      target = gpu::kNoHandle;
    }
  }
  buffers_ = {};
  drawable_buffers_.clear();
  // Present-path objects died with the context; forget the stale names.
  present_program_ = 0;
  present_texture_ = 0;
  present_image_.reset();
  present_image_buffer_ = 0;
  present_fence_ = gpu::kNoHandle;
  back_ = 0;
  creator_ = kernel::kInvalidTid;
  gles_version_ = 0;
  width_ = 0;
  height_ = 0;
}

Status UiWrapper::reinitialize(int gles_version, int width, int height) {
  teardown();
  return initialize(gles_version, width, height);
}

Status UiWrapper::make_current() {
  if (context_ == glcore::kNoContext) {
    return Status::failed_precondition("not initialized");
  }
  // Same affinity rule the stock EGL wrapper enforces; an iOS thread gets
  // here only while impersonating the creator.
  if (!android_thread_affinity_ok(creator_)) {
    return Status::permission_denied(
        "context is owned by another thread (Android affinity rule)");
  }
  return engine_->make_current(context_, targets_[back_]);
}

Status UiWrapper::clear_current() {
  if (engine_ == nullptr) return Status::ok();
  return engine_->make_current(glcore::kNoContext, gpu::kNoHandle);
}

StatusOr<gmem::BufferId> UiWrapper::create_drawable_buffer(int width,
                                                           int height) {
  auto buffer = gmem::GrallocAllocator::instance().allocate(
      width, height, PixelFormat::kRgba8888,
      gmem::kUsageGpuRenderTarget | gmem::kUsageGpuTexture |
          gmem::kUsageCpuRead | gmem::kUsageCpuWrite);
  CYCADA_RETURN_IF_ERROR(buffer.status());
  // The layer owns its backing stores: keep the buffer alive for the
  // replica's lifetime (gralloc's registry holds only weak references).
  drawable_buffers_.push_back(buffer.value());
  return buffer.value()->id();
}

Status UiWrapper::bind_renderbuffer(glcore::GLuint rb, gmem::BufferId id) {
  auto buffer = gmem::GrallocAllocator::instance().find(id);
  if (buffer == nullptr) return Status::not_found("no such GraphicBuffer");
  return engine_->renderbuffer_storage_from_buffer(rb, std::move(buffer));
}

Status UiWrapper::ensure_present_program() {
  if (present_program_ != 0) return Status::ok();
  glcore::GlesEngine& gl = *engine_;
  const char* vs_src = kPresentVs;
  const char* fs_src = kPresentFs;
  const glcore::GLuint vs = gl.glCreateShader(glcore::GL_VERTEX_SHADER);
  const glcore::GLuint fs = gl.glCreateShader(glcore::GL_FRAGMENT_SHADER);
  gl.glShaderSource(vs, 1, &vs_src, nullptr);
  gl.glShaderSource(fs, 1, &fs_src, nullptr);
  gl.glCompileShader(vs);
  gl.glCompileShader(fs);
  present_program_ = gl.glCreateProgram();
  gl.glAttachShader(present_program_, vs);
  gl.glAttachShader(present_program_, fs);
  gl.glLinkProgram(present_program_);
  glcore::GLint linked = glcore::GL_FALSE;
  gl.glGetProgramiv(present_program_, glcore::GL_LINK_STATUS, &linked);
  if (linked != glcore::GL_TRUE) {
    return Status::internal("present program failed to link");
  }
  gl.glGenTextures(1, &present_texture_);
  // 1:1 blit: nearest filtering (exact and cheap, like the HW present path).
  glcore::GLint saved = 0;
  gl.glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved);
  gl.glBindTexture(glcore::GL_TEXTURE_2D, present_texture_);
  gl.glTexParameteri(glcore::GL_TEXTURE_2D, glcore::GL_TEXTURE_MAG_FILTER,
                     glcore::GL_NEAREST);
  gl.glTexParameteri(glcore::GL_TEXTURE_2D, glcore::GL_TEXTURE_MIN_FILTER,
                     glcore::GL_NEAREST);
  gl.glBindTexture(glcore::GL_TEXTURE_2D,
                   static_cast<glcore::GLuint>(saved));
  return Status::ok();
}

Status UiWrapper::draw_fbo_tex(gmem::BufferId content) {
  if (context_ == glcore::kNoContext) {
    return Status::failed_precondition("not initialized");
  }
  glcore::GlesEngine& gl = *engine_;
  if (gl.current_context_id() != context_) {
    return Status::failed_precondition("replica context is not current");
  }
  auto buffer = gmem::GrallocAllocator::instance().find(content);
  if (buffer == nullptr) return Status::not_found("no such content buffer");

  // Note: the present path works even on a GLES1 context because the
  // replica engine exposes the full vendor entry-point set (as the real
  // Tegra library does); the program objects are private to this replica.
  CYCADA_RETURN_IF_ERROR(ensure_present_program());

  // Save the caller-visible state this pass clobbers.
  glcore::GLint saved_fbo = 0;
  gl.glGetIntegerv(glcore::GL_FRAMEBUFFER_BINDING, &saved_fbo);
  glcore::GLint saved_texture = 0;
  gl.glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved_texture);
  glcore::GLint saved_viewport[4] = {0, 0, 0, 0};
  gl.glGetIntegerv(glcore::GL_VIEWPORT, saved_viewport);
  // The quad is a plain 1:1 blit, whatever blend, depth, scissor, cull and
  // colour-mask state the app left behind: an inherited blend would mix the
  // frame into the stale window, and an inherited depth test would compare
  // it against the window's depth buffer.
  constexpr glcore::GLenum kPlainCaps[] = {
      glcore::GL_BLEND, glcore::GL_DEPTH_TEST, glcore::GL_SCISSOR_TEST,
      glcore::GL_CULL_FACE};
  glcore::GLboolean saved_caps[std::size(kPlainCaps)] = {};
  for (std::size_t i = 0; i < std::size(kPlainCaps); ++i) {
    saved_caps[i] = gl.glIsEnabled(kPlainCaps[i]);
    if (saved_caps[i] == glcore::GL_TRUE) gl.glDisable(kPlainCaps[i]);
  }
  glcore::GLint saved_mask[4] = {1, 1, 1, 1};
  gl.glGetIntegerv(glcore::GL_COLOR_WRITEMASK, saved_mask);
  gl.glColorMask(glcore::GL_TRUE, glcore::GL_TRUE, glcore::GL_TRUE,
                 glcore::GL_TRUE);
  // The quad's attribute pointers are client memory; with the app's VBO
  // still bound they would be read as offsets into that buffer.
  glcore::GLint saved_array_buffer = 0;
  gl.glGetIntegerv(glcore::GL_ARRAY_BUFFER_BINDING, &saved_array_buffer);
  gl.glBindBuffer(glcore::GL_ARRAY_BUFFER, 0);

  // Bind the content buffer's memory as a texture via an EGLImage, exactly
  // like the real zero-copy path.
  gl.glBindFramebuffer(glcore::GL_FRAMEBUFFER, 0);
  gl.glBindTexture(glcore::GL_TEXTURE_2D, present_texture_);
  if (present_image_ == nullptr || present_image_buffer_ != content) {
    present_image_ = std::make_unique<glcore::EglImage>();
    present_image_->buffer = buffer;
    present_image_buffer_ = content;
    gl.glEGLImageTargetTexture2DOES(glcore::GL_TEXTURE_2D,
                                    present_image_.get());
  }
  gl.glUseProgram(present_program_);
  const float identity[16] = {1, 0, 0, 0, 0, 1, 0, 0,
                              0, 0, 1, 0, 0, 0, 0, 1};
  gl.glUniformMatrix4fv(0, 1, glcore::GL_FALSE, identity);
  gl.glUniform1i(2, 0);
  gl.glViewport(0, 0, width_, height_);
  // Fullscreen quad; uv(0,0) lands on the top-left pixel (row 0 is top in
  // this codebase, so no vertical flip is required).
  const float positions[] = {-1, 1, 1, 1, 1, -1, -1, 1, 1, -1, -1, -1};
  const float uvs[] = {0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1};
  gl.glEnableVertexAttribArray(0);
  gl.glEnableVertexAttribArray(2);
  gl.glVertexAttribPointer(0, 2, glcore::GL_FLOAT, glcore::GL_FALSE, 0,
                           positions);
  gl.glVertexAttribPointer(2, 2, glcore::GL_FLOAT, glcore::GL_FALSE, 0, uvs);
  gl.glDrawArrays(glcore::GL_TRIANGLES, 0, 6);

  // Restore caller state.
  gl.glDisableVertexAttribArray(0);
  gl.glDisableVertexAttribArray(2);
  gl.glUseProgram(0);
  gl.glBindBuffer(glcore::GL_ARRAY_BUFFER,
                  static_cast<glcore::GLuint>(saved_array_buffer));
  gl.glBindTexture(glcore::GL_TEXTURE_2D,
                   static_cast<glcore::GLuint>(saved_texture));
  gl.glBindFramebuffer(glcore::GL_FRAMEBUFFER,
                       static_cast<glcore::GLuint>(saved_fbo));
  gl.glViewport(saved_viewport[0], saved_viewport[1], saved_viewport[2],
                saved_viewport[3]);
  for (std::size_t i = 0; i < std::size(kPlainCaps); ++i) {
    if (saved_caps[i] == glcore::GL_TRUE) gl.glEnable(kPlainCaps[i]);
  }
  gl.glColorMask(static_cast<glcore::GLboolean>(saved_mask[0]),
                 static_cast<glcore::GLboolean>(saved_mask[1]),
                 static_cast<glcore::GLboolean>(saved_mask[2]),
                 static_cast<glcore::GLboolean>(saved_mask[3]));
  // Kick the present pass to the device now (drivers submit the blit with
  // the present request, not lazily), so its cost is attributable here.
  device().flush();
  return Status::ok();
}

Status UiWrapper::copy_tex_buf(glcore::GLuint texture, gmem::BufferId dst) {
  auto buffer = gmem::GrallocAllocator::instance().find(dst);
  if (buffer == nullptr) return Status::not_found("no such GraphicBuffer");
  if (buffer->format() != PixelFormat::kRgba8888) {
    return Status::invalid_argument("destination must be RGBA8888");
  }
  // Resolve the texture's GPU storage through a throwaway FBO attachment
  // read, the way the real bridge uses glReadPixels on a texture FBO.
  glcore::GlesEngine& gl = *engine_;
  glcore::GLint saved_fbo = 0;
  gl.glGetIntegerv(glcore::GL_FRAMEBUFFER_BINDING, &saved_fbo);
  glcore::GLuint fbo = 0;
  gl.glGenFramebuffers(1, &fbo);
  gl.glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
  gl.glFramebufferTexture2D(glcore::GL_FRAMEBUFFER,
                            glcore::GL_COLOR_ATTACHMENT0,
                            glcore::GL_TEXTURE_2D, texture, 0);
  Status result = Status::ok();
  if (gl.glCheckFramebufferStatus(glcore::GL_FRAMEBUFFER) !=
      glcore::GL_FRAMEBUFFER_COMPLETE) {
    result = Status::failed_precondition("texture not attachable");
  } else {
    const int width = buffer->width();
    std::vector<std::uint32_t> row(static_cast<std::size_t>(width));
    for (int y = 0; y < buffer->height(); ++y) {
      gl.glReadPixels(0, y, width, 1, glcore::GL_RGBA,
                      glcore::GL_UNSIGNED_BYTE, row.data());
      std::memcpy(buffer->pixels32() +
                      static_cast<std::size_t>(y) * buffer->stride_px(),
                  row.data(), row.size() * sizeof(std::uint32_t));
    }
  }
  gl.glBindFramebuffer(glcore::GL_FRAMEBUFFER,
                       static_cast<glcore::GLuint>(saved_fbo));
  gl.glDeleteFramebuffers(1, &fbo);
  return result;
}

Status UiWrapper::swap_buffers() {
  if (context_ == glcore::kNoContext) {
    return Status::failed_precondition("not initialized");
  }
  static trace::Histogram& present_wait =
      trace::MetricsRegistry::instance().histogram(
          "pipeline.stage.present_wait_ns");
  // Composition handoff, deferred one swap (same protocol as
  // eglSwapBuffers): settle the previous frame behind its fence before this
  // frame's flip replaces it.
  const std::int64_t wait_start = now_ns();
  sync_front();
  present_wait.record(now_ns() - wait_start);
  // Submit this frame to the tile pipeline (async when it can overlap),
  // flip, and re-point the default framebuffer at the new back buffer.
  present_fence_ = device().submit_fence();
  device().submit_frame();
  back_ = 1 - back_;
  CYCADA_RETURN_IF_ERROR(engine_->set_default_target(targets_[back_]));
  // Frame boundary for the watchdog's clean-frame hysteresis (the iOS
  // stack presents through here rather than eglSwapBuffers).
  util::Watchdog::instance().note_frame();
  return Status::ok();
}

std::vector<void*> UiWrapper::get_tls() {
  // The replica's thread-local binding: the engine's current-context slot.
  return {kernel::libc::pthread_getspecific(engine_->current_context_tls_key())};
}

Status UiWrapper::set_tls(const std::vector<void*>& values) {
  if (values.size() != 1) return Status::invalid_argument("expected 1 slot");
  kernel::libc::pthread_setspecific(engine_->current_context_tls_key(),
                                    values[0]);
  return Status::ok();
}

void UiWrapper::sync_front() const {
  if (present_fence_ == gpu::kNoHandle) return;
  static trace::Counter& dropped =
      trace::MetricsRegistry::instance().counter("watchdog.frames.dropped");
  const std::int64_t budget_ms = util::Watchdog::instance().effective_budget_ms(
      util::kWatchdogPresentBudgetMs);
  if (!device().wait_fence_for(present_fence_, budget_ms)) {
    // Forced retire, same protocol as EglSurface::sync_front: scan out the
    // stale front buffer, drop the frame, abandon the fence.
    dropped.add();
  }
  present_fence_ = gpu::kNoHandle;
}

Image UiWrapper::front_snapshot() const {
  sync_front();
  Image image(width_, height_);
  const gmem::GraphicBuffer& front = *buffers_[1 - back_];
  const auto* pixels =
      const_cast<gmem::GraphicBuffer&>(front).pixels32();
  for (int y = 0; y < height_; ++y) {
    std::memcpy(&image.at(0, y),
                pixels + static_cast<std::size_t>(y) * front.stride_px(),
                static_cast<std::size_t>(width_) * sizeof(std::uint32_t));
  }
  return image;
}

}  // namespace cycada::android_gl
