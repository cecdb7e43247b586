#include "android_gl/egl.h"

#include "android_gl/ui_wrapper.h"
#include "android_gl/vendor.h"
#include "core/session.h"
#include "gpu/device.h"
#include "kernel/libc.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/log.h"
#include "util/watchdog.h"

namespace cycada::android_gl {

namespace {
gpu::GpuDevice& device() { return gpu::GpuDevice::instance(); }

// Packs a small EGLint into the TLS error slot.
void* pack_error(EGLint error) {
  return reinterpret_cast<void*>(static_cast<std::intptr_t>(error));
}
EGLint unpack_error(void* value) {
  return static_cast<EGLint>(reinterpret_cast<std::intptr_t>(value));
}
}  // namespace

const gmem::GraphicBuffer& EglSurface::front_buffer() const {
  sync_front();
  return *buffers_[1 - back_];
}

void EglSurface::sync_front() const {
  if (present_fence_ == gpu::kNoHandle) return;
  static trace::Counter& dropped =
      trace::MetricsRegistry::instance().counter("watchdog.frames.dropped");
  const std::int64_t budget_ms = util::Watchdog::instance().effective_budget_ms(
      util::kWatchdogPresentBudgetMs);
  if (!device().wait_fence_for(present_fence_, budget_ms)) {
    // Forced retire: the previous frame's raster is stuck past its budget.
    // Scan out the front buffer as-is (one possibly-stale frame beats a
    // hung compositor) and account the drop; the fence is abandoned so the
    // next swap does not re-wait a dead frame.
    dropped.add();
  }
  present_fence_ = gpu::kNoHandle;
}

AndroidEgl::AndroidEgl() {
  tls_connection_key_ = kernel::libc::pthread_key_create();
  tls_context_key_ = kernel::libc::pthread_key_create();
  tls_error_key_ = kernel::libc::pthread_key_create();
}

AndroidEgl::~AndroidEgl() {
  for (kernel::TlsKey key :
       {tls_connection_key_, tls_context_key_, tls_error_key_}) {
    if (key != kernel::kInvalidTlsKey) kernel::libc::pthread_key_delete(key);
  }
}

void* AndroidEgl::symbol(std::string_view name) {
  if (name == "egl_wrapper") return this;
  return nullptr;
}

std::vector<std::string> AndroidEgl::exported_symbols() const {
  return {"egl_wrapper"};
}

void AndroidEgl::set_error(EGLint error) {
  kernel::libc::pthread_setspecific(tls_error_key_, pack_error(error));
}

EGLint AndroidEgl::eglGetError() {
  void* stored = kernel::libc::pthread_getspecific(tls_error_key_);
  kernel::libc::pthread_setspecific(tls_error_key_, nullptr);
  return stored == nullptr ? EGL_SUCCESS : unpack_error(stored);
}

EGLBoolean AndroidEgl::eglInitialize() {
  TRACE_SCOPE("gl", "eglInitialize");
  std::lock_guard lock(mutex_);
  if (process_connection_ != nullptr) return EGL_TRUE;
  // Load the (shared) vendor library — the one vendor connection the stock
  // wrapper permits per process.
  auto handle = linker::Linker::instance().dlopen(kVendorGlesLib);
  if (!handle.is_ok()) {
    set_error(EGL_NOT_INITIALIZED);
    return EGL_FALSE;
  }
  auto connection = std::make_unique<EglConnection>();
  connection->library = std::move(handle.value());
  connection->engine = engine_from_handle(connection->library);
  connection->id = 0;
  if (connection->engine == nullptr) {
    set_error(EGL_NOT_INITIALIZED);
    return EGL_FALSE;
  }
  process_connection_ = std::move(connection);
  return EGL_TRUE;
}

EGLBoolean AndroidEgl::eglTerminate() {
  std::lock_guard lock(mutex_);
  contexts_.clear();
  surfaces_.clear();
  images_.clear();
  mc_connections_.clear();
  while (!warm_pool_.empty()) {
    auto connection = std::move(warm_pool_.back());
    warm_pool_.pop_back();
    (void)linker::Linker::instance().dlclose(std::move(connection->library));
  }
  shared_refs_ = 0;
  if (shared_connection_ != nullptr) {
    (void)linker::Linker::instance().dlclose(
        std::move(shared_connection_->library));
    shared_connection_.reset();
  }
  if (process_connection_ != nullptr) {
    (void)linker::Linker::instance().dlclose(
        std::move(process_connection_->library));
    process_connection_.reset();
  }
  return EGL_TRUE;
}

EglConnection* AndroidEgl::current_connection() {
  void* stored = kernel::libc::pthread_getspecific(tls_connection_key_);
  if (stored != nullptr) return static_cast<EglConnection*>(stored);
  return process_connection_.get();
}

EglConnection* AndroidEgl::connection_by_id(int id) {
  std::lock_guard lock(mutex_);
  if (id == 0) return process_connection_.get();
  for (const auto& connection : mc_connections_) {
    if (connection->id == id) return connection.get();
  }
  if (shared_connection_ != nullptr && shared_connection_->id == id) {
    return shared_connection_.get();
  }
  return nullptr;
}

glcore::GlesEngine* AndroidEgl::gles() {
  EglConnection* connection = current_connection();
  return connection == nullptr ? nullptr : connection->engine;
}

EglSurface* AndroidEgl::create_surface(int width, int height, bool window) {
  if (width <= 0 || height <= 0) {
    set_error(EGL_BAD_PARAMETER);
    return nullptr;
  }
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("egl.create_surface");
  if (fault.should_fail()) {
    set_error(EGL_BAD_ALLOC);
    return nullptr;
  }
  auto surface = std::make_unique<EglSurface>();
  surface->width_ = width;
  surface->height_ = height;
  const int buffer_count = window ? 2 : 1;
  for (int i = 0; i < buffer_count; ++i) {
    auto buffer = gmem::GrallocAllocator::instance().allocate(
        width, height, PixelFormat::kRgba8888,
        gmem::kUsageGpuRenderTarget | gmem::kUsageComposer);
    if (!buffer.is_ok()) {
      set_error(EGL_BAD_PARAMETER);
      return nullptr;
    }
    surface->buffers_[i] = std::move(buffer.value());
    surface->targets_[i] = device().create_target_external(
        surface->buffers_[i]->pixels32(), width, height,
        surface->buffers_[i]->stride_px(), /*with_depth=*/true);
  }
  if (!window) {
    surface->buffers_[1] = surface->buffers_[0];
    surface->targets_[1] = surface->targets_[0];
  }
  std::lock_guard lock(mutex_);
  surfaces_.push_back(std::move(surface));
  return surfaces_.back().get();
}

EglSurface* AndroidEgl::eglCreateWindowSurface(int width, int height) {
  if (process_connection_ == nullptr) {
    set_error(EGL_NOT_INITIALIZED);
    return nullptr;
  }
  return create_surface(width, height, /*window=*/true);
}

EglSurface* AndroidEgl::eglCreatePbufferSurface(int width, int height) {
  if (process_connection_ == nullptr) {
    set_error(EGL_NOT_INITIALIZED);
    return nullptr;
  }
  return create_surface(width, height, /*window=*/false);
}

EGLBoolean AndroidEgl::eglDestroySurface(EglSurface* surface) {
  std::lock_guard lock(mutex_);
  auto it = std::find_if(
      surfaces_.begin(), surfaces_.end(),
      [surface](const auto& owned) { return owned.get() == surface; });
  if (it == surfaces_.end()) {
    set_error(EGL_BAD_SURFACE);
    return EGL_FALSE;
  }
  (void)device().destroy_target((*it)->targets_[0]);
  if ((*it)->targets_[1] != (*it)->targets_[0]) {
    (void)device().destroy_target((*it)->targets_[1]);
  }
  surfaces_.erase(it);
  return EGL_TRUE;
}

EglContext* AndroidEgl::eglCreateContext(int gles_version) {
  TRACE_SCOPE("gl", "eglCreateContext");
  EglConnection* connection = current_connection();
  if (connection == nullptr) {
    set_error(EGL_NOT_INITIALIZED);
    return nullptr;
  }
  if (gles_version != 1 && gles_version != 2) {
    set_error(EGL_BAD_PARAMETER);
    return nullptr;
  }
  std::lock_guard lock(mutex_);
  // The Android restriction of paper §8: one GLES API version per vendor
  // connection. The first context locks the connection's version.
  if (connection->locked_version != 0 &&
      connection->locked_version != gles_version) {
    set_error(EGL_BAD_MATCH);
    return nullptr;
  }
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("egl.create_context");
  if (fault.should_fail()) {
    set_error(EGL_BAD_ALLOC);
    return nullptr;
  }
  const glcore::ContextId engine_context =
      connection->engine->create_context(gles_version);
  if (engine_context == glcore::kNoContext) {
    set_error(EGL_BAD_PARAMETER);
    return nullptr;
  }
  connection->locked_version = gles_version;
  auto context = std::make_unique<EglContext>();
  context->connection = connection;
  context->engine_context = engine_context;
  context->version = gles_version;
  context->creator = kernel::sys_gettid();
  contexts_.push_back(std::move(context));
  return contexts_.back().get();
}

EGLBoolean AndroidEgl::eglDestroyContext(EglContext* context) {
  std::lock_guard lock(mutex_);
  auto it = std::find_if(
      contexts_.begin(), contexts_.end(),
      [context](const auto& owned) { return owned.get() == context; });
  if (it == contexts_.end()) {
    set_error(EGL_BAD_CONTEXT);
    return EGL_FALSE;
  }
  (void)(*it)->connection->engine->destroy_context((*it)->engine_context);
  contexts_.erase(it);
  return EGL_TRUE;
}

EGLBoolean AndroidEgl::eglMakeCurrent(EglSurface* surface,
                                      EglContext* context) {
  TRACE_SCOPE("gl", "eglMakeCurrent");
  if (context == nullptr) {
    kernel::libc::pthread_setspecific(tls_context_key_, nullptr);
    if (glcore::GlesEngine* engine = gles()) {
      (void)engine->make_current(glcore::kNoContext, gpu::kNoHandle);
    }
    return EGL_TRUE;
  }
  // Android's creator-affinity rule (paper §7): this is the check thread
  // impersonation exists to satisfy.
  if (!android_thread_affinity_ok(context->creator)) {
    set_error(EGL_BAD_ACCESS);
    return EGL_FALSE;
  }
  const gpu::RenderTargetHandle target =
      surface != nullptr ? surface->back_target() : gpu::kNoHandle;
  const Status status =
      context->connection->engine->make_current(context->engine_context,
                                                target);
  if (!status.is_ok()) {
    set_error(EGL_BAD_CONTEXT);
    return EGL_FALSE;
  }
  kernel::libc::pthread_setspecific(tls_connection_key_, context->connection);
  kernel::libc::pthread_setspecific(tls_context_key_, context);
  return EGL_TRUE;
}

EglContext* AndroidEgl::eglGetCurrentContext() {
  return static_cast<EglContext*>(
      kernel::libc::pthread_getspecific(tls_context_key_));
}

EGLBoolean AndroidEgl::eglSwapBuffers(EglSurface* surface) {
  TRACE_SCOPE("gl", "eglSwapBuffers");
  if (surface == nullptr) {
    set_error(EGL_BAD_SURFACE);
    return EGL_FALSE;
  }
  static trace::Counter& swaps =
      trace::MetricsRegistry::instance().counter("gl.egl_swaps");
  swaps.add();
  static trace::Histogram& present_wait =
      trace::MetricsRegistry::instance().histogram(
          "pipeline.stage.present_wait_ns");
  // Composition handoff, deferred one swap: settle the PREVIOUS frame —
  // wait out its fence if its raster work is still in flight — before this
  // frame replaces it. Deferring the wait is what lets a swap return while
  // the pipeline is still rasterizing.
  const std::int64_t wait_start = now_ns();
  surface->sync_front();
  present_wait.record(now_ns() - wait_start);
  // Close the recorded commands as this frame and hand them to the tile
  // pipeline — asynchronously when the pool can overlap. The fence gates
  // every CPU consumer of the new front buffer (front_buffer() waits it).
  const gpu::FenceHandle frame_fence = device().submit_fence();
  device().submit_frame();
  surface->back_ = 1 - surface->back_;
  surface->present_fence_ = frame_fence;
  // Rendering continues into the new back buffer.
  EglContext* context = eglGetCurrentContext();
  if (context != nullptr) {
    (void)context->connection->engine->set_default_target(
        surface->back_target());
  }
  // Frame boundary for the recovery ladder's hysteresis: a swap with no
  // stall in any supervised domain counts toward climbing back up a rung.
  util::Watchdog::instance().note_frame();
  return EGL_TRUE;
}

glcore::EglImage* AndroidEgl::eglCreateImageKHR(gmem::BufferId buffer_id) {
  auto buffer = gmem::GrallocAllocator::instance().find(buffer_id);
  if (buffer == nullptr) {
    set_error(EGL_BAD_PARAMETER);
    return nullptr;
  }
  auto image = std::make_unique<glcore::EglImage>();
  image->buffer = std::move(buffer);
  std::lock_guard lock(mutex_);
  images_.push_back(std::move(image));
  return images_.back().get();
}

EGLBoolean AndroidEgl::eglDestroyImageKHR(glcore::EglImage* image) {
  std::lock_guard lock(mutex_);
  auto it = std::find_if(
      images_.begin(), images_.end(),
      [image](const auto& owned) { return owned.get() == image; });
  if (it == images_.end()) {
    set_error(EGL_BAD_PARAMETER);
    return EGL_FALSE;
  }
  images_.erase(it);
  return EGL_TRUE;
}

int AndroidEgl::eglReInitializeMC() {
  TRACE_SCOPE("gl", "eglReInitializeMC");
  static trace::Counter& warm_hits =
      trace::MetricsRegistry::instance().counter("replica.pool.warm_hits");
  static trace::Counter& warm_misses =
      trace::MetricsRegistry::instance().counter("replica.pool.warm_misses");
  static trace::Counter& exhausted =
      trace::MetricsRegistry::instance().counter("replica.pool.exhausted");
  {
    std::lock_guard lock(mutex_);
    // Live-replica cap: a graceful refusal here is what sends the bridge
    // down its degradation ladder instead of unbounded vendor-stack growth.
    if (max_live_replicas_ > 0 &&
        static_cast<int>(mc_connections_.size()) >= max_live_replicas_) {
      exhausted.add();
      set_error(EGL_BAD_ALLOC);
      return 0;
    }
    if (!warm_pool_.empty()) {
      auto connection = std::move(warm_pool_.back());
      warm_pool_.pop_back();
      warm_hits.add();
      connection->locked_version = 0;
      connection->id = next_connection_id_++;
      EglConnection* raw = connection.get();
      mc_connections_.push_back(std::move(connection));
      kernel::libc::pthread_setspecific(tls_connection_key_, raw);
      return raw->id;
    }
  }
  warm_misses.add();
  // DLR: replicate libui_wrapper and, through its dependency closure, the
  // whole vendor GLES stack (paper §8.1.1). The replica becomes the calling
  // thread's connection.
  auto replica = linker::Linker::instance().dlforce(kUiWrapperLib);
  if (!replica.is_ok()) {
    set_error(EGL_NOT_INITIALIZED);
    return 0;
  }
  auto connection = std::make_unique<EglConnection>();
  connection->library = std::move(replica.value());
  connection->engine = engine_from_handle(connection->library);
  connection->ui_wrapper = static_cast<UiWrapper*>(
      linker::Linker::instance().dlsym(connection->library, "ui_wrapper"));
  if (connection->engine == nullptr || connection->ui_wrapper == nullptr) {
    set_error(EGL_NOT_INITIALIZED);
    return 0;
  }
  std::lock_guard lock(mutex_);
  // Re-check the cap: another thread may have minted a replica while we
  // were outside the lock. Refuse rather than exceed the bound.
  if (max_live_replicas_ > 0 &&
      static_cast<int>(mc_connections_.size()) >= max_live_replicas_) {
    exhausted.add();
    (void)linker::Linker::instance().dlclose(std::move(connection->library));
    set_error(EGL_BAD_ALLOC);
    return 0;
  }
  connection->id = next_connection_id_++;
  EglConnection* raw = connection.get();
  mc_connections_.push_back(std::move(connection));
  kernel::libc::pthread_setspecific(tls_connection_key_, raw);
  return raw->id;
}

EGLBoolean AndroidEgl::eglReleaseMC(int connection_id) {
  TRACE_SCOPE("gl", "eglReleaseMC");
  static trace::Counter& released =
      trace::MetricsRegistry::instance().counter("replica.pool.released");
  static trace::Counter& evictions =
      trace::MetricsRegistry::instance().counter("replica.pool.evictions");
  std::unique_ptr<EglConnection> evicted;
  {
    std::lock_guard lock(mutex_);
    auto it = std::find_if(mc_connections_.begin(), mc_connections_.end(),
                           [connection_id](const auto& owned) {
                             return owned->id == connection_id;
                           });
    if (it == mc_connections_.end()) {
      set_error(EGL_BAD_PARAMETER);
      return EGL_FALSE;
    }
    std::unique_ptr<EglConnection> connection = std::move(*it);
    mc_connections_.erase(it);
    if (kernel::libc::pthread_getspecific(tls_connection_key_) ==
        connection.get()) {
      kernel::libc::pthread_setspecific(tls_connection_key_, nullptr);
    }
    released.add();
    connection->locked_version = 0;
    if (static_cast<int>(warm_pool_.size()) < max_warm_replicas_) {
      warm_pool_.push_back(std::move(connection));
    } else if (max_warm_replicas_ > 0) {
      // Pool full: park the fresh release, evict the oldest replica (LRU).
      evicted = std::move(warm_pool_.front());
      warm_pool_.erase(warm_pool_.begin());
      warm_pool_.push_back(std::move(connection));
      evictions.add();
    } else {
      evicted = std::move(connection);
      evictions.add();
    }
  }
  if (evicted != nullptr) {
    (void)linker::Linker::instance().dlclose(std::move(evicted->library));
  }
  return EGL_TRUE;
}

EglConnection* AndroidEgl::eglAcquireSharedMC() {
  TRACE_SCOPE("gl", "eglAcquireSharedMC");
  std::lock_guard lock(mutex_);
  if (shared_connection_ == nullptr) {
    // Degraded mode: one global-namespace copy of libui_wrapper shared by
    // every acquirer. Loaded through the linker's fallback path, which is
    // deliberately outside fault injection — the last rung of the ladder
    // must not itself be injectable.
    auto handle =
        linker::Linker::instance().dlopen_shared_fallback(kUiWrapperLib);
    if (!handle.is_ok()) {
      set_error(EGL_NOT_INITIALIZED);
      return nullptr;
    }
    auto connection = std::make_unique<EglConnection>();
    connection->library = std::move(handle.value());
    connection->engine = engine_from_handle(connection->library);
    connection->ui_wrapper = static_cast<UiWrapper*>(
        linker::Linker::instance().dlsym(connection->library, "ui_wrapper"));
    if (connection->engine == nullptr || connection->ui_wrapper == nullptr) {
      (void)linker::Linker::instance().dlclose(
          std::move(connection->library));
      set_error(EGL_NOT_INITIALIZED);
      return nullptr;
    }
    connection->id = next_connection_id_++;
    shared_connection_ = std::move(connection);
  }
  ++shared_refs_;
  kernel::libc::pthread_setspecific(tls_connection_key_,
                                    shared_connection_.get());
  return shared_connection_.get();
}

EGLBoolean AndroidEgl::eglReleaseSharedMC() {
  std::unique_ptr<EglConnection> dying;
  {
    std::lock_guard lock(mutex_);
    if (shared_connection_ == nullptr || shared_refs_ == 0) {
      set_error(EGL_BAD_ACCESS);
      return EGL_FALSE;
    }
    if (kernel::libc::pthread_getspecific(tls_connection_key_) ==
        shared_connection_.get()) {
      kernel::libc::pthread_setspecific(tls_connection_key_, nullptr);
    }
    if (--shared_refs_ == 0) dying = std::move(shared_connection_);
  }
  if (dying != nullptr) {
    (void)linker::Linker::instance().dlclose(std::move(dying->library));
  }
  return EGL_TRUE;
}

void AndroidEgl::set_replica_pool_limits(int max_live, int max_warm) {
  std::vector<std::unique_ptr<EglConnection>> overflow;
  {
    std::lock_guard lock(mutex_);
    max_live_replicas_ = max_live < 0 ? 0 : max_live;
    max_warm_replicas_ = max_warm < 0 ? 0 : max_warm;
    while (static_cast<int>(warm_pool_.size()) > max_warm_replicas_) {
      overflow.push_back(std::move(warm_pool_.front()));
      warm_pool_.erase(warm_pool_.begin());
    }
  }
  for (auto& connection : overflow) {
    (void)linker::Linker::instance().dlclose(std::move(connection->library));
  }
}

int AndroidEgl::live_replica_count() {
  std::lock_guard lock(mutex_);
  return static_cast<int>(mc_connections_.size());
}

int AndroidEgl::warm_pool_size() {
  std::lock_guard lock(mutex_);
  return static_cast<int>(warm_pool_.size());
}

EGLBoolean AndroidEgl::eglSwitchMC(int connection_id) {
  EglConnection* connection = connection_by_id(connection_id);
  if (connection == nullptr) {
    set_error(EGL_BAD_PARAMETER);
    return EGL_FALSE;
  }
  kernel::libc::pthread_setspecific(tls_connection_key_, connection);
  return EGL_TRUE;
}

EGLBoolean AndroidEgl::eglGetTLSMC(void** tls_vals, int nvals) {
  if (tls_vals == nullptr || nvals < 2) {
    set_error(EGL_BAD_PARAMETER);
    return EGL_FALSE;
  }
  tls_vals[0] = kernel::libc::pthread_getspecific(tls_connection_key_);
  tls_vals[1] = kernel::libc::pthread_getspecific(tls_context_key_);
  return EGL_TRUE;
}

EGLBoolean AndroidEgl::eglSetTLSMC(void* const* tls_vals, int nvals) {
  if (tls_vals == nullptr || nvals < 2) {
    set_error(EGL_BAD_PARAMETER);
    return EGL_FALSE;
  }
  kernel::libc::pthread_setspecific(tls_connection_key_, tls_vals[0]);
  kernel::libc::pthread_setspecific(tls_context_key_, tls_vals[1]);
  return EGL_TRUE;
}

AndroidEgl* open_android_egl() {
  register_android_graphics_libraries();
  auto handle = linker::Linker::instance().dlopen(kEglLib);
  if (!handle.is_ok()) return nullptr;
  auto* egl = static_cast<AndroidEgl*>(
      linker::Linker::instance().dlsym(handle.value(), "egl_wrapper"));
  // The wrapper stays resident for its session's lifetime (matches how
  // libEGL stays resident for process lifetime). The pin lives in a session
  // facet so a destroyed session releases its wrapper copy instead of
  // leaking it; pins from before a linker reset are stale but never
  // dereferenced again. Teardown tier 1, same as the linker facet: every
  // library-holding facet must drop its handles in the linker tier so
  // library-instance destructors (which reach into the kernel and GPU
  // facets) never run after tier-0 state is gone. The pin is created after
  // the linker, so within the tier it is released first and the linker's
  // own teardown unloads the copies.
  struct EglPin {
    std::vector<linker::Handle> handles;
  };
  core::Session::current()
      .facet<EglPin>(+[] { return new EglPin(); }, /*teardown_order=*/1)
      .handles.push_back(std::move(handle.value()));
  return egl;
}

}  // namespace cycada::android_gl
