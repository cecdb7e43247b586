// The GLES state machine both platforms' vendor libraries instantiate.
//
// One GlesEngine corresponds to one loaded copy of a vendor GLES library:
// it owns its contexts, drives the shared software GPU, and — critically for
// the paper's thread-impersonation and DLR stories — keeps the calling
// thread's *current context* in a TLS slot it reserves at construction time
// through the simulated libc. Replicating the library (dlforce) therefore
// yields an engine with its own TLS key, its own object namespaces and its
// own current-context state, exactly as on real Android.
//
// GL entry points follow the GLES convention: they act on the calling
// thread's current context and record errors retrievable via glGetError.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "glcore/context.h"
#include "kernel/kernel.h"

namespace cycada::gpu {
class GpuDevice;
}  // namespace cycada::gpu

namespace cycada::glcore {

// Behavior/identity knobs that differ between the Android (Tegra-like) and
// Apple (PowerVR-like) builds of the engine.
struct GlesEngineConfig {
  std::string vendor = "Cycada";
  std::string renderer = "SoftGPU";
  std::string gles1_version = "OpenGL ES-CM 1.1";
  std::string gles2_version = "OpenGL ES 2.0";
  // Space-separated extension string reported by glGetString(GL_EXTENSIONS).
  std::string extensions;
  bool supports_nv_fence = false;
  bool supports_apple_fence = false;
  bool supports_apple_row_bytes = false;
  // Apple's GLES allows any thread to use any context; Android's does not.
  // (The *enforcement* of Android's rule lives in EGL; this flag only
  // drives glGetString-style identity.)
  std::string present_path = "egl";
};

using ContextId = std::uint64_t;
inline constexpr ContextId kNoContext = 0;

class GlesEngine {
 public:
  explicit GlesEngine(GlesEngineConfig config);
  ~GlesEngine();
  GlesEngine(const GlesEngine&) = delete;
  GlesEngine& operator=(const GlesEngine&) = delete;

  const GlesEngineConfig& config() const { return config_; }
  // The TLS key holding this engine copy's current-context pointer; the
  // impersonation machinery migrates this slot between threads.
  kernel::TlsKey current_context_tls_key() const { return tls_key_; }

  // --- Context management (called by the window-system layer) ------------
  ContextId create_context(int gles_version);
  Status destroy_context(ContextId id);
  // Binds `id` (or nothing, with kNoContext) to the calling thread and sets
  // the context's default-framebuffer target.
  Status make_current(ContextId id, gpu::RenderTargetHandle default_target);
  ContextId current_context_id();
  // Creator thread of a context (EGL enforces Android's affinity rule).
  kernel::Tid context_creator(ContextId id);
  int context_version(ContextId id);
  // Re-points the current context's default framebuffer (buffer swaps).
  Status set_default_target(gpu::RenderTargetHandle target);
  gpu::RenderTargetHandle default_target();

  // The GPU target rendering currently lands in (bound FBO resolved).
  gpu::RenderTargetHandle resolve_draw_target();

  // --- Common GLES (v1 + v2) ---------------------------------------------
  void glClear(GLbitfield mask);
  void glClearColor(GLclampf r, GLclampf g, GLclampf b, GLclampf a);
  void glClearDepthf(GLclampf depth);
  void glEnable(GLenum cap);
  void glDisable(GLenum cap);
  GLboolean glIsEnabled(GLenum cap);
  void glBlendFunc(GLenum sfactor, GLenum dfactor);
  void glDepthFunc(GLenum func);
  void glDepthMask(GLboolean flag);
  void glCullFace(GLenum mode);
  void glViewport(GLint x, GLint y, GLsizei width, GLsizei height);
  void glScissor(GLint x, GLint y, GLsizei width, GLsizei height);
  void glFlush();
  void glFinish();
  GLenum glGetError();
  const GLubyte* glGetString(GLenum name);
  void glGetIntegerv(GLenum pname, GLint* params);
  void glGetFloatv(GLenum pname, GLfloat* params);
  void glColorMask(GLboolean r, GLboolean g, GLboolean b, GLboolean a);
  void glFrontFace(GLenum mode);
  void glLineWidth(GLfloat width);
  void glDepthRangef(GLclampf near_val, GLclampf far_val);
  void glBlendEquation(GLenum mode);
  void glBlendColor(GLclampf r, GLclampf g, GLclampf b, GLclampf a);
  void glHint(GLenum target, GLenum mode);
  void glSampleCoverage(GLclampf value, GLboolean invert);
  void glPolygonOffset(GLfloat factor, GLfloat units);
  void glStencilFunc(GLenum func, GLint ref, GLuint mask);
  void glStencilMask(GLuint mask);
  void glStencilOp(GLenum sfail, GLenum dpfail, GLenum dppass);
  void glPixelStorei(GLenum pname, GLint param);
  void glReadPixels(GLint x, GLint y, GLsizei width, GLsizei height,
                    GLenum format, GLenum type, void* pixels);
  void glPointSize(GLfloat size);

  // Textures.
  void glGenTextures(GLsizei n, GLuint* out);
  void glDeleteTextures(GLsizei n, const GLuint* names);
  void glBindTexture(GLenum target, GLuint name);
  void glActiveTexture(GLenum unit);
  void glTexParameteri(GLenum target, GLenum pname, GLint param);
  void glTexImage2D(GLenum target, GLint level, GLint internal_format,
                    GLsizei width, GLsizei height, GLint border, GLenum format,
                    GLenum type, const void* pixels);
  void glTexSubImage2D(GLenum target, GLint level, GLint x, GLint y,
                       GLsizei width, GLsizei height, GLenum format,
                       GLenum type, const void* pixels);
  GLboolean glIsTexture(GLuint name);
  // Copies pixels out of the current draw target into the bound texture.
  void glCopyTexImage2D(GLenum target, GLint level, GLenum internal_format,
                        GLint x, GLint y, GLsizei width, GLsizei height,
                        GLint border);
  void glCopyTexSubImage2D(GLenum target, GLint level, GLint xoffset,
                           GLint yoffset, GLint x, GLint y, GLsizei width,
                           GLsizei height);
  void glGenerateMipmap(GLenum target);
  // OES_EGL_image.
  void glEGLImageTargetTexture2DOES(GLenum target, void* egl_image);

  // Buffers.
  void glGenBuffers(GLsizei n, GLuint* out);
  void glDeleteBuffers(GLsizei n, const GLuint* names);
  void glBindBuffer(GLenum target, GLuint name);
  void glBufferData(GLenum target, GLsizeiptr size, const void* data,
                    GLenum usage);
  void glBufferSubData(GLenum target, GLintptr offset, GLsizeiptr size,
                       const void* data);
  GLboolean glIsBuffer(GLuint name);
  void glGetBufferParameteriv(GLenum target, GLenum pname, GLint* params);

  // Framebuffers / renderbuffers.
  void glGenFramebuffers(GLsizei n, GLuint* out);
  void glDeleteFramebuffers(GLsizei n, const GLuint* names);
  void glBindFramebuffer(GLenum target, GLuint name);
  void glGenRenderbuffers(GLsizei n, GLuint* out);
  void glDeleteRenderbuffers(GLsizei n, const GLuint* names);
  void glBindRenderbuffer(GLenum target, GLuint name);
  void glRenderbufferStorage(GLenum target, GLenum internal_format,
                             GLsizei width, GLsizei height);
  void glFramebufferRenderbuffer(GLenum target, GLenum attachment,
                                 GLenum rb_target, GLuint renderbuffer);
  void glFramebufferTexture2D(GLenum target, GLenum attachment,
                              GLenum tex_target, GLuint texture, GLint level);
  GLenum glCheckFramebufferStatus(GLenum target);
  GLboolean glIsFramebuffer(GLuint name);
  GLboolean glIsRenderbuffer(GLuint name);
  void glGetRenderbufferParameteriv(GLenum target, GLenum pname, GLint* out);
  // Binds renderbuffer storage to a drawable's GraphicBuffer; the mechanism
  // under EAGL's renderbufferStorageFromDrawable.
  Status renderbuffer_storage_from_buffer(
      GLuint renderbuffer, std::shared_ptr<gmem::GraphicBuffer> buffer);

  // GLES2 shaders/programs.
  GLuint glCreateShader(GLenum type);
  void glDeleteShader(GLuint shader);
  void glShaderSource(GLuint shader, GLsizei count, const char* const* strings,
                      const GLint* lengths);
  void glCompileShader(GLuint shader);
  void glGetShaderiv(GLuint shader, GLenum pname, GLint* params);
  GLboolean glIsShader(GLuint shader);
  GLuint glCreateProgram();
  void glDeleteProgram(GLuint program);
  void glAttachShader(GLuint program, GLuint shader);
  void glDetachShader(GLuint program, GLuint shader);
  GLboolean glIsProgram(GLuint program);
  void glValidateProgram(GLuint program);
  void glLinkProgram(GLuint program);
  void glGetProgramiv(GLuint program, GLenum pname, GLint* params);
  void glUseProgram(GLuint program);
  GLint glGetAttribLocation(GLuint program, const char* name);
  GLint glGetUniformLocation(GLuint program, const char* name);
  void glUniformMatrix4fv(GLint location, GLsizei count, GLboolean transpose,
                          const GLfloat* value);
  void glUniform4f(GLint location, GLfloat x, GLfloat y, GLfloat z, GLfloat w);
  void glUniform4fv(GLint location, GLsizei count, const GLfloat* value);
  void glUniform1i(GLint location, GLint value);
  void glUniform1f(GLint location, GLfloat value);

  // GLES2 vertex attributes.
  void glEnableVertexAttribArray(GLuint index);
  void glDisableVertexAttribArray(GLuint index);
  void glVertexAttribPointer(GLuint index, GLint size, GLenum type,
                             GLboolean normalized, GLsizei stride,
                             const void* pointer);
  void glVertexAttrib4f(GLuint index, GLfloat x, GLfloat y, GLfloat z,
                        GLfloat w);

  // Draws.
  void glDrawArrays(GLenum mode, GLint first, GLsizei count);
  void glDrawElements(GLenum mode, GLsizei count, GLenum type,
                      const void* indices);

  // GLES1 fixed function.
  void glMatrixMode(GLenum mode);
  void glLoadIdentity();
  void glLoadMatrixf(const GLfloat* m);
  void glMultMatrixf(const GLfloat* m);
  void glPushMatrix();
  void glPopMatrix();
  void glTranslatef(GLfloat x, GLfloat y, GLfloat z);
  void glRotatef(GLfloat angle, GLfloat x, GLfloat y, GLfloat z);
  void glScalef(GLfloat x, GLfloat y, GLfloat z);
  void glOrthof(GLfloat l, GLfloat r, GLfloat b, GLfloat t, GLfloat n,
                GLfloat f);
  void glFrustumf(GLfloat l, GLfloat r, GLfloat b, GLfloat t, GLfloat n,
                  GLfloat f);
  void glColor4f(GLfloat r, GLfloat g, GLfloat b, GLfloat a);
  void glEnableClientState(GLenum array);
  void glDisableClientState(GLenum array);
  void glVertexPointer(GLint size, GLenum type, GLsizei stride,
                       const void* pointer);
  void glColorPointer(GLint size, GLenum type, GLsizei stride,
                      const void* pointer);
  void glTexCoordPointer(GLint size, GLenum type, GLsizei stride,
                         const void* pointer);
  void glNormalPointer(GLenum type, GLsizei stride, const void* pointer);
  void glTexEnvi(GLenum target, GLenum pname, GLint param);

  // NV_fence (and, through the bridge, APPLE_fence).
  void glGenFencesNV(GLsizei n, GLuint* fences);
  void glDeleteFencesNV(GLsizei n, const GLuint* fences);
  void glSetFenceNV(GLuint fence, GLenum condition);
  GLboolean glTestFenceNV(GLuint fence);
  void glFinishFenceNV(GLuint fence);
  GLboolean glIsFenceNV(GLuint fence);

 private:
  GlContext* current();  // nullptr (and no error record) when none bound
  // The GPU device this engine copy's handles were created on: captured at
  // construction (the session that dlopened the vendor library), so GL
  // calls always hit the device that owns the engine's textures and
  // targets, whatever session the calling thread is bound to by then.
  gpu::GpuDevice& device() const { return *device_; }
  GlContext* require_context();
  void record_error(GLenum error);
  TextureObject* bound_texture_object(GlContext& ctx);
  gpu::RasterState build_raster_state(GlContext& ctx, bool textured,
                                      gpu::TextureHandle texture);
  void draw_gles2(GlContext& ctx, GLenum mode, std::span<const GLuint> indices,
                  GLint first, GLsizei count);
  void draw_gles1(GlContext& ctx, GLenum mode, std::span<const GLuint> indices,
                  GLint first, GLsizei count);
  void submit_vertices(GlContext& ctx, GLenum mode,
                       std::vector<gpu::ShadedVertex> vertices, bool textured,
                       gpu::TextureHandle texture);

  GlesEngineConfig config_;
  gpu::GpuDevice* device_ = nullptr;  // set in the constructor, never null
  kernel::TlsKey tls_key_ = kernel::kInvalidTlsKey;
  std::mutex contexts_mutex_;
  std::vector<std::unique_ptr<GlContext>> contexts_;
  ContextId next_context_id_ = 1;
  // Map from ContextId to GlContext*; ids never recycle.
  std::unordered_map<ContextId, GlContext*> context_index_;
};

}  // namespace cycada::glcore
