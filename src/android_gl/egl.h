// The open-source Android EGL wrapper (paper §8.1), with the two Android
// restrictions Cycada has to work around, faithfully enforced:
//
//  1. One vendor EGL-to-GLES connection per process, locked to one GLES API
//     version by the first context created (§8: "Only a single EGL
//     connection to a single GLES API version can be made per-process").
//  2. A context may only be made current by the thread that created it or
//     by the thread-group leader's thread (§7: Android's creator-affinity
//     rule — the reason Cycada needs thread impersonation).
//
// The custom EGL_multi_context extension (Figure 4) is implemented here:
// eglReInitializeMC uses the DLR-enabled linker (dlforce) to replicate
// libui_wrapper.so and, through it, the whole vendor GLES stack; the
// per-thread connection then lives in TLS, and eglGetTLSMC/eglSetTLSMC
// expose those slots for migration via thread impersonation.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "glcore/context.h"
#include "glcore/engine.h"
#include "gmem/graphic_buffer.h"
#include "kernel/kernel.h"
#include "linker/linker.h"

namespace cycada::android_gl {

using EGLBoolean = int;
using EGLint = int;
inline constexpr EGLBoolean EGL_TRUE = 1;
inline constexpr EGLBoolean EGL_FALSE = 0;

inline constexpr EGLint EGL_SUCCESS = 0x3000;
inline constexpr EGLint EGL_NOT_INITIALIZED = 0x3001;
inline constexpr EGLint EGL_BAD_ACCESS = 0x3002;
inline constexpr EGLint EGL_BAD_ALLOC = 0x3003;
inline constexpr EGLint EGL_BAD_CONTEXT = 0x3006;
inline constexpr EGLint EGL_BAD_MATCH = 0x3009;
inline constexpr EGLint EGL_BAD_PARAMETER = 0x300C;
inline constexpr EGLint EGL_BAD_SURFACE = 0x300D;

class AndroidEgl;
class UiWrapper;

// A double-buffered drawable. Window surfaces are backed by GraphicBuffers
// (zero-copy to the compositor); the "front" buffer is what the screen
// shows. Since PR 8 a swap submits the frame to the tile pipeline
// asynchronously and records a present fence on the surface; every CPU
// consumer of the front buffer goes through front_buffer(), which waits
// that fence, so readers always observe the fully rasterized frame.
class EglSurface {
 public:
  int width() const { return width_; }
  int height() const { return height_; }
  // The GPU target rendering currently lands in (the back buffer).
  gpu::RenderTargetHandle back_target() const { return targets_[back_]; }
  // The displayed buffer's pixels (what Surface Flinger would scan out).
  // Implies sync_front().
  const gmem::GraphicBuffer& front_buffer() const;
  gmem::GraphicBuffer& back_buffer() { return *buffers_[back_]; }
  // Blocks until the present fence recorded by the last eglSwapBuffers has
  // signaled (no-op when the frame already retired or none is pending).
  void sync_front() const;

 private:
  friend class AndroidEgl;
  std::array<std::shared_ptr<gmem::GraphicBuffer>, 2> buffers_;
  std::array<gpu::RenderTargetHandle, 2> targets_{};
  // Signals when the displayed frame's raster work retires. Mutable: waiting
  // it out is logically const for readers.
  mutable gpu::FenceHandle present_fence_ = gpu::kNoHandle;
  int back_ = 0;
  int width_ = 0;
  int height_ = 0;
};

// An EGL-to-GLES vendor connection: one loaded copy of the vendor stack.
// The process gets exactly one by default; EGL_multi_context mints more via
// DLR.
struct EglConnection {
  linker::Handle library;          // replica root (or base vendor lib)
  glcore::GlesEngine* engine = nullptr;
  UiWrapper* ui_wrapper = nullptr;  // present on MC replicas
  int locked_version = 0;           // GLES version this connection is tied to
  int id = 0;
};

// An EGL rendering context.
struct EglContext {
  EglConnection* connection = nullptr;
  glcore::ContextId engine_context = glcore::kNoContext;
  int version = 0;
  kernel::Tid creator = kernel::kInvalidTid;
};

class AndroidEgl : public linker::LibraryInstance {
 public:
  AndroidEgl();
  ~AndroidEgl() override;
  void* symbol(std::string_view name) override;
  std::vector<std::string> exported_symbols() const override;

  // --- Standard EGL ------------------------------------------------------
  EGLBoolean eglInitialize();
  EGLBoolean eglTerminate();
  bool initialized() const { return process_connection_ != nullptr; }

  EglSurface* eglCreateWindowSurface(int width, int height);
  EglSurface* eglCreatePbufferSurface(int width, int height);
  EGLBoolean eglDestroySurface(EglSurface* surface);

  EglContext* eglCreateContext(int gles_version);
  EGLBoolean eglDestroyContext(EglContext* context);
  EGLBoolean eglMakeCurrent(EglSurface* surface, EglContext* context);
  EglContext* eglGetCurrentContext();
  EGLBoolean eglSwapBuffers(EglSurface* surface);
  EGLint eglGetError();  // per-thread, cleared on read

  // The engine of the calling thread's connection (for issuing GL calls).
  glcore::GlesEngine* gles();

  // --- EGLImage (KHR_image_base + ANDROID_image_native_buffer) ------------
  glcore::EglImage* eglCreateImageKHR(gmem::BufferId buffer);
  EGLBoolean eglDestroyImageKHR(glcore::EglImage* image);

  // --- EGL_multi_context (Figure 4) ---------------------------------------
  // Creates a fresh vendor-stack replica via dlforce — or reuses a parked
  // replica from the warm pool — and makes it the calling thread's
  // connection. Returns its id (>0), or 0 on failure (including when the
  // live-replica cap is reached: EGL_BAD_ALLOC, the caller should degrade).
  int eglReInitializeMC();
  // Releases a replica connection minted by eglReInitializeMC: the replica
  // is parked in the warm pool for reuse, or dlclosed when the pool is full
  // (the oldest parked replica is evicted first). The caller must have torn
  // down all contexts/surfaces built on the connection, and no other
  // thread's TLS may still reference it.
  EGLBoolean eglReleaseMC(int connection_id);
  // Degraded-mode shared connection (refcounted): every acquirer shares one
  // global-namespace libui_wrapper copy, loaded via the linker's shared
  // fallback (no DLR, no fault injection). Makes it the calling thread's
  // connection. Returns nullptr on failure.
  EglConnection* eglAcquireSharedMC();
  EGLBoolean eglReleaseSharedMC();
  // Replica-pool policy: `max_live` caps concurrently live MC replicas
  // (0 = unlimited); `max_warm` caps the parked warm pool.
  void set_replica_pool_limits(int max_live, int max_warm);
  int live_replica_count();
  int warm_pool_size();
  // Switches the calling thread to `connection_id`'s connection.
  EGLBoolean eglSwitchMC(int connection_id);
  // Reads/writes the wrapper's per-thread slots {connection, context} so
  // thread impersonation can migrate them (paper §8.1.1).
  EGLBoolean eglGetTLSMC(void** tls_vals, int nvals);
  EGLBoolean eglSetTLSMC(void* const* tls_vals, int nvals);
  // The calling thread's connection (process default when unset).
  EglConnection* current_connection();
  // Connection lookup by id (0 = process connection).
  EglConnection* connection_by_id(int id);

  // TLS keys the EGL wrapper reserves (exposed so the graphics-TLS tracker
  // can include them).
  kernel::TlsKey connection_tls_key() const { return tls_connection_key_; }
  kernel::TlsKey context_tls_key() const { return tls_context_key_; }

 private:
  void set_error(EGLint error);
  EglSurface* create_surface(int width, int height, bool window);

  std::mutex mutex_;
  std::unique_ptr<EglConnection> process_connection_;
  std::vector<std::unique_ptr<EglConnection>> mc_connections_;
  // Released replicas parked for reuse; front is the oldest (LRU victim).
  std::vector<std::unique_ptr<EglConnection>> warm_pool_;
  std::unique_ptr<EglConnection> shared_connection_;
  int shared_refs_ = 0;
  int max_live_replicas_ = 0;  // 0 = unlimited
  int max_warm_replicas_ = 2;
  std::vector<std::unique_ptr<EglSurface>> surfaces_;
  std::vector<std::unique_ptr<EglContext>> contexts_;
  std::vector<std::unique_ptr<glcore::EglImage>> images_;
  int next_connection_id_ = 1;
  kernel::TlsKey tls_connection_key_ = kernel::kInvalidTlsKey;
  kernel::TlsKey tls_context_key_ = kernel::kInvalidTlsKey;
  kernel::TlsKey tls_error_key_ = kernel::kInvalidTlsKey;
};

// dlopens libEGL.so (global namespace) and returns the shared wrapper.
AndroidEgl* open_android_egl();

}  // namespace cycada::android_gl
