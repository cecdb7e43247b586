#include "ios_gl/gles.h"

#include <cstring>
#include <vector>

#include "core/batch.h"
#include "core/classification.h"
#include "glcore/api_registry.h"
#include "core/diplomat.h"
#include "ios_gl/eagl.h"
#include "ios_gl/egl_bridge.h"
#include "ios_gl/platform.h"
#include "iosurface/iosurface.h"
#include "kernel/kernel.h"
#include "trace/cyt.h"

namespace cycada::ios_gl {

namespace {

// Per-call TLS migration for threads using a context they did not create
// (paper §7.1 steps 3-5): install the TLS associated with the context,
// assume the creator's identity, and on return reflect updates back and
// restore the running thread's own state. Runs in the Android persona.
class MigrationScope {
 public:
  explicit MigrationScope(EAGLContext* eagl) : eagl_(eagl) {
    if (eagl_ == nullptr) return;
    wrapper_ = eagl_->wrapper();
    saved_ = wrapper_->get_tls();
    (void)wrapper_->set_tls({eagl_->context_tls_value()});
    kernel::sys_impersonate(eagl_->creator_tid());
    trace::capture_set_impersonating(true);
  }
  ~MigrationScope() {
    if (eagl_ == nullptr) return;
    auto updated = wrapper_->get_tls();
    eagl_->set_context_tls_value(updated.empty() ? nullptr : updated[0]);
    (void)wrapper_->set_tls(saved_);
    kernel::sys_impersonate(kernel::kInvalidTid);
    trace::capture_set_impersonating(false);
  }
  MigrationScope(const MigrationScope&) = delete;
  MigrationScope& operator=(const MigrationScope&) = delete;

 private:
  EAGLContext* eagl_ = nullptr;
  android_gl::UiWrapper* wrapper_ = nullptr;
  std::vector<void*> saved_;
};

core::DiplomatId gl_diplomat_id(std::string_view name) {
  return core::DiplomatRegistry::instance().resolve(
      name, core::classify_ios_gl_function(name));
}

// Dispatches one iOS GLES call: direct on native iOS, a diplomat into the
// current EAGLContext's replica engine on Cycada. While a core::BatchScope
// is open, batchable calls queue in the multi-diplomat command buffer and
// cross personas together at the next flush; everything else flushes the
// pending batch and crosses on its own.
//
// `scalar_args` are the call's scalar arguments when it has only scalars
// (call sites that capture by value pass them through); while trace capture
// is on they are staged for the .cyt event this dispatch produces, together
// with the void-return bit the batchability miner keys on (docs/TRACING.md).
template <typename Fn, typename... Args>
std::invoke_result_t<Fn, glcore::GlesEngine&> dispatch(
    core::DiplomatEntry& entry, Fn&& fn, Args... scalar_args) {
  using Result = std::invoke_result_t<Fn, glcore::GlesEngine&>;
  if (trace::capture_enabled()) {
    if constexpr (sizeof...(Args) > 0) {
      const double staged[] = {static_cast<double>(scalar_args)...};
      trace::capture_stage_args(staged, static_cast<int>(sizeof...(Args)),
                                std::is_void_v<Result>);
    } else {
      trace::capture_stage_args(nullptr, 0, std::is_void_v<Result>);
    }
  }
  if (platform() == Platform::kNativeIos) {
    return fn(*apple_engine());
  }
  EAGLContext::Ref eagl = EAGLContext::current_context();
  if (eagl == nullptr || eagl->wrapper() == nullptr) {
    if constexpr (!std::is_void_v<Result>) return Result{};
    else return;
  }
  const bool migrate = kernel::sys_gettid() != eagl->creator_tid();
  android_gl::UiWrapper* wrapper = eagl->wrapper();
  if constexpr (std::is_void_v<Result>) {
    // Batchable calls (void return, scalar args) defer: the closure owns
    // copies of its arguments — call sites capture by value — plus a
    // context Ref so the replica engine outlives the deferred replay.
    // Migrating threads never batch (replay would need the creator's TLS),
    // and degraded contexts serialize through the fallback connection.
    if (entry.batchable && !migrate && core::batching_active() &&
        !eagl->degraded() &&
        core::batch_record(entry, eglbridge::graphics_hooks(),
                           [fn, eagl]() { fn(*eagl->wrapper()->engine()); })) {
      return;
    }
  }
  // Any other dispatch needs the bus in program order: replay whatever the
  // recorder still holds before crossing for this call.
  core::flush_current_batch(core::BatchFlushReason::kNonBatchable);
  return core::diplomat_call(entry, eglbridge::graphics_hooks(),
                             [&]() -> Result {
                               MigrationScope scope(migrate ? eagl.get()
                                                            : nullptr);
                               return fn(*wrapper->engine());
                             });
}

// The fast-path dispatch protocol (docs/DISPATCH.md): resolve the dense
// DiplomatId once per call site, then index the immortal by-id segment
// array on every call — two wait-free acquire loads, no registry mutex and
// no name lookup.
#define IOS_GL(name)                                           \
  static const core::DiplomatId diplomat_id =                  \
      gl_diplomat_id(#name);                                   \
  core::DiplomatEntry& entry =                                 \
      core::DiplomatRegistry::instance().entry_by_id(diplomat_id)

}  // namespace

// --- Common state -----------------------------------------------------------

void glClear(GLbitfield mask) {
  IOS_GL(glClear);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glClear(mask); }, mask);
}

void glClearColor(GLclampf r, GLclampf g, GLclampf b, GLclampf a) {
  IOS_GL(glClearColor);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glClearColor(r, g, b, a); },
           r, g, b, a);
}

void glClearDepthf(GLclampf depth) {
  IOS_GL(glClearDepthf);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glClearDepthf(depth); },
           depth);
}

void glEnable(GLenum cap) {
  IOS_GL(glEnable);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glEnable(cap); }, cap);
}

void glDisable(GLenum cap) {
  IOS_GL(glDisable);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glDisable(cap); }, cap);
}

void glBlendFunc(GLenum sfactor, GLenum dfactor) {
  IOS_GL(glBlendFunc);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glBlendFunc(sfactor, dfactor); },
                    sfactor, dfactor);
}

void glDepthFunc(GLenum func) {
  IOS_GL(glDepthFunc);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glDepthFunc(func); }, func);
}

void glDepthMask(GLboolean flag) {
  IOS_GL(glDepthMask);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glDepthMask(flag); }, flag);
}

void glCullFace(GLenum mode) {
  IOS_GL(glCullFace);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glCullFace(mode); }, mode);
}

void glViewport(GLint x, GLint y, GLsizei width, GLsizei height) {
  IOS_GL(glViewport);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glViewport(x, y, width, height); },
                    x, y, width, height);
}

void glScissor(GLint x, GLint y, GLsizei width, GLsizei height) {
  IOS_GL(glScissor);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glScissor(x, y, width, height); },
                    x, y, width, height);
}

void glFlush() {
  IOS_GL(glFlush);
  dispatch(entry, [&](glcore::GlesEngine& gl) { gl.glFlush(); });
}

void glFinish() {
  IOS_GL(glFinish);
  dispatch(entry, [&](glcore::GlesEngine& gl) { gl.glFinish(); });
}

GLenum glGetError() {
  IOS_GL(glGetError);
  return dispatch(entry,
                  [&](glcore::GlesEngine& gl) { return gl.glGetError(); });
}

const GLubyte* glGetString(GLenum name) {
  IOS_GL(glGetString);
  // Data-dependent diplomat (paper §4.1): Apple modified glGetString to
  // accept a non-standard parameter returning Apple-proprietary extensions.
  if (name == glcore::GL_APPLE_PROPRIETARY_EXTENSIONS) {
    if (platform() == Platform::kNativeIos) {
      static const std::string* apple = new std::string(
          glcore::extension_string(glcore::ios_registry()));
      return reinterpret_cast<const GLubyte*>(apple->c_str());
    }
    // Cycada interprets the input and answers without calling Android: no
    // Apple-proprietary extensions are available on this device.
    core::diplomat_skip(entry);
    return reinterpret_cast<const GLubyte*>("");
  }
  return dispatch(entry,
                  [&](glcore::GlesEngine& gl) { return gl.glGetString(name); });
}

void glGetIntegerv(GLenum pname, GLint* params) {
  IOS_GL(glGetIntegerv);
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glGetIntegerv(pname, params); });
}

void glPixelStorei(GLenum pname, GLint param) {
  IOS_GL(glPixelStorei);
  // Data-dependent diplomat: the APPLE_row_bytes parameters are unknown to
  // Android — Cycada keeps that state itself and never forwards them.
  if (platform() == Platform::kCycada &&
      (pname == glcore::GL_PACK_ROW_BYTES_APPLE ||
       pname == glcore::GL_UNPACK_ROW_BYTES_APPLE)) {
    EAGLContext::Ref eagl = EAGLContext::current_context();
    if (eagl != nullptr) {
      if (pname == glcore::GL_PACK_ROW_BYTES_APPLE) {
        eagl->set_apple_pack_row_bytes(param);
      } else {
        eagl->set_apple_unpack_row_bytes(param);
      }
      core::diplomat_skip(entry);
    }
    return;
  }
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glPixelStorei(pname, param); });
}

void glReadPixels(GLint x, GLint y, GLsizei width, GLsizei height,
                  GLenum format, GLenum type, void* pixels) {
  IOS_GL(glReadPixels);
  // Data-dependent diplomat: when APPLE_row_bytes packing is active under
  // Cycada, read tight rows from Android and write out the packed data
  // manually (paper §4.1).
  EAGLContext::Ref eagl = EAGLContext::current_context();
  const int row_bytes = (platform() == Platform::kCycada && eagl != nullptr)
                            ? eagl->apple_pack_row_bytes()
                            : 0;
  if (row_bytes > 0 && format == glcore::GL_RGBA &&
      type == glcore::GL_UNSIGNED_BYTE) {
    std::vector<std::uint32_t> tight(static_cast<std::size_t>(width) * height);
    dispatch(entry, [&](glcore::GlesEngine& gl) {
      gl.glReadPixels(x, y, width, height, format, type, tight.data());
    });
    auto* dst = static_cast<std::uint8_t*>(pixels);
    for (GLsizei row = 0; row < height; ++row) {
      std::memcpy(dst + static_cast<std::size_t>(row) * row_bytes,
                  tight.data() + static_cast<std::size_t>(row) * width,
                  static_cast<std::size_t>(width) * 4);
    }
    return;
  }
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glReadPixels(x, y, width, height, format, type, pixels);
  });
}

void glPointSize(GLfloat size) {
  IOS_GL(glPointSize);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glPointSize(size); }, size);
}

void glGetFloatv(GLenum pname, GLfloat* params) {
  IOS_GL(glGetFloatv);
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glGetFloatv(pname, params); });
}

void glColorMask(GLboolean r, GLboolean g, GLboolean b, GLboolean a) {
  IOS_GL(glColorMask);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glColorMask(r, g, b, a); },
           r, g, b, a);
}

void glFrontFace(GLenum mode) {
  IOS_GL(glFrontFace);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glFrontFace(mode); }, mode);
}

void glLineWidth(GLfloat width) {
  IOS_GL(glLineWidth);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glLineWidth(width); },
           width);
}

void glDepthRangef(GLclampf near_val, GLclampf far_val) {
  IOS_GL(glDepthRangef);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glDepthRangef(near_val, far_val);
  }, near_val, far_val);
}

void glBlendEquation(GLenum mode) {
  IOS_GL(glBlendEquation);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glBlendEquation(mode); },
           mode);
}

void glHint(GLenum target, GLenum mode) {
  IOS_GL(glHint);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glHint(target, mode); },
           target, mode);
}

void glStencilFunc(GLenum func, GLint ref, GLuint mask) {
  IOS_GL(glStencilFunc);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glStencilFunc(func, ref, mask); },
                    func, ref, mask);
}

void glStencilMask(GLuint mask) {
  IOS_GL(glStencilMask);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glStencilMask(mask); },
           mask);
}

void glStencilOp(GLenum sfail, GLenum dpfail, GLenum dppass) {
  IOS_GL(glStencilOp);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glStencilOp(sfail, dpfail, dppass);
  }, sfail, dpfail, dppass);
}

void glPolygonOffset(GLfloat factor, GLfloat units) {
  IOS_GL(glPolygonOffset);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glPolygonOffset(factor, units); },
                    factor, units);
}

// glBlendColor and glSampleCoverage are void/scalar/value-capturing but the
// hand table conservatively keeps them unbatched until a trace corpus shows
// them in batch-eligible runs — the classification prover's amendment
// pipeline (docs/ANALYZER.md) graduates them once the replay proof passes.
void glBlendColor(GLclampf r, GLclampf g, GLclampf b, GLclampf a) {
  IOS_GL(glBlendColor);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glBlendColor(r, g, b, a); },
           r, g, b, a);
}

void glSampleCoverage(GLclampf value, GLboolean invert) {
  IOS_GL(glSampleCoverage);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glSampleCoverage(value, invert); },
           value, invert);
}

// --- Textures ---------------------------------------------------------------

void glGenTextures(GLsizei n, GLuint* out) {
  IOS_GL(glGenTextures);
  dispatch(entry, [&](glcore::GlesEngine& gl) { gl.glGenTextures(n, out); });
}

void glDeleteTextures(GLsizei n, const GLuint* names) {
  IOS_GL(glDeleteTextures);
  // Multi diplomat (paper §6.1): sever any IOSurface/GraphicBuffer
  // association before the Android delete.
  EAGLContext::Ref eagl = EAGLContext::current_context();
  if (platform() == Platform::kCycada && eagl != nullptr &&
      eagl->wrapper() != nullptr && names != nullptr) {
    auto& surfaces = iosurface::LinuxCoreSurface::instance();
    for (GLsizei i = 0; i < n; ++i) {
      if (auto surface = surfaces.surface_for_texture(eagl->wrapper(),
                                                      names[i])) {
        (void)surfaces.unbind_gles_texture(surface);
      }
    }
  }
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glDeleteTextures(n, names); });
}

void glBindTexture(GLenum target, GLuint name) {
  IOS_GL(glBindTexture);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glBindTexture(target, name); },
                    target, name);
}

void glActiveTexture(GLenum unit) {
  IOS_GL(glActiveTexture);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glActiveTexture(unit); },
           unit);
}

void glTexParameteri(GLenum target, GLenum pname, GLint param) {
  IOS_GL(glTexParameteri);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glTexParameteri(target, pname, param);
  }, target, pname, param);
}

void glTexImage2D(GLenum target, GLint level, GLint internal_format,
                  GLsizei width, GLsizei height, GLint border, GLenum format,
                  GLenum type, const void* pixels) {
  IOS_GL(glTexImage2D);
  // Data-dependent diplomat: repack APPLE_row_bytes-strided input to the
  // tight rows Android expects.
  EAGLContext::Ref eagl = EAGLContext::current_context();
  const int row_bytes = (platform() == Platform::kCycada && eagl != nullptr)
                            ? eagl->apple_unpack_row_bytes()
                            : 0;
  if (row_bytes > 0 && pixels != nullptr && format == glcore::GL_RGBA &&
      type == glcore::GL_UNSIGNED_BYTE) {
    std::vector<std::uint32_t> tight(static_cast<std::size_t>(width) * height);
    const auto* src = static_cast<const std::uint8_t*>(pixels);
    for (GLsizei row = 0; row < height; ++row) {
      std::memcpy(tight.data() + static_cast<std::size_t>(row) * width,
                  src + static_cast<std::size_t>(row) * row_bytes,
                  static_cast<std::size_t>(width) * 4);
    }
    dispatch(entry, [&](glcore::GlesEngine& gl) {
      gl.glTexImage2D(target, level, internal_format, width, height, border,
                      format, type, tight.data());
    });
    return;
  }
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glTexImage2D(target, level, internal_format, width, height, border,
                    format, type, pixels);
  });
}

void glTexSubImage2D(GLenum target, GLint level, GLint x, GLint y,
                     GLsizei width, GLsizei height, GLenum format, GLenum type,
                     const void* pixels) {
  IOS_GL(glTexSubImage2D);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glTexSubImage2D(target, level, x, y, width, height, format, type,
                       pixels);
  });
}

GLboolean glIsTexture(GLuint name) {
  IOS_GL(glIsTexture);
  return dispatch(entry,
                  [&](glcore::GlesEngine& gl) { return gl.glIsTexture(name); });
}

void glCopyTexImage2D(GLenum target, GLint level, GLenum internal_format,
                      GLint x, GLint y, GLsizei width, GLsizei height,
                      GLint border) {
  IOS_GL(glCopyTexImage2D);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glCopyTexImage2D(target, level, internal_format, x, y, width, height,
                        border);
  }, target, level, internal_format, x, y, width, height, border);
}

void glCopyTexSubImage2D(GLenum target, GLint level, GLint xoffset,
                         GLint yoffset, GLint x, GLint y, GLsizei width,
                         GLsizei height) {
  IOS_GL(glCopyTexSubImage2D);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glCopyTexSubImage2D(target, level, xoffset, yoffset, x, y, width,
                           height);
  }, target, level, xoffset, yoffset, x, y, width, height);
}

void glGenerateMipmap(GLenum target) {
  IOS_GL(glGenerateMipmap);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glGenerateMipmap(target); },
           target);
}

GLboolean glIsBuffer(GLuint name) {
  IOS_GL(glIsBuffer);
  return dispatch(entry,
                  [&](glcore::GlesEngine& gl) { return gl.glIsBuffer(name); });
}

void glGetBufferParameteriv(GLenum target, GLenum pname, GLint* params) {
  IOS_GL(glGetBufferParameteriv);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glGetBufferParameteriv(target, pname, params);
  });
}

// --- Buffers ----------------------------------------------------------------

void glGenBuffers(GLsizei n, GLuint* out) {
  IOS_GL(glGenBuffers);
  dispatch(entry, [&](glcore::GlesEngine& gl) { gl.glGenBuffers(n, out); });
}

void glDeleteBuffers(GLsizei n, const GLuint* names) {
  IOS_GL(glDeleteBuffers);
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glDeleteBuffers(n, names); });
}

void glBindBuffer(GLenum target, GLuint name) {
  IOS_GL(glBindBuffer);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glBindBuffer(target, name); },
                    target, name);
}

void glBufferData(GLenum target, GLsizeiptr size, const void* data,
                  GLenum usage) {
  IOS_GL(glBufferData);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glBufferData(target, size, data, usage);
  });
}

void glBufferSubData(GLenum target, GLintptr offset, GLsizeiptr size,
                     const void* data) {
  IOS_GL(glBufferSubData);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glBufferSubData(target, offset, size, data);
  });
}

// --- Framebuffers / renderbuffers --------------------------------------------

void glGenFramebuffers(GLsizei n, GLuint* out) {
  IOS_GL(glGenFramebuffers);
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glGenFramebuffers(n, out); });
}

void glDeleteFramebuffers(GLsizei n, const GLuint* names) {
  IOS_GL(glDeleteFramebuffers);
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glDeleteFramebuffers(n, names); });
}

void glBindFramebuffer(GLenum target, GLuint name) {
  IOS_GL(glBindFramebuffer);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glBindFramebuffer(target, name); },
                    target, name);
}

void glGenRenderbuffers(GLsizei n, GLuint* out) {
  IOS_GL(glGenRenderbuffers);
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glGenRenderbuffers(n, out); });
}

void glDeleteRenderbuffers(GLsizei n, const GLuint* names) {
  IOS_GL(glDeleteRenderbuffers);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glDeleteRenderbuffers(n, names);
  });
}

void glBindRenderbuffer(GLenum target, GLuint name) {
  IOS_GL(glBindRenderbuffer);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glBindRenderbuffer(target, name);
  }, target, name);
}

void glRenderbufferStorage(GLenum target, GLenum internal_format,
                           GLsizei width, GLsizei height) {
  IOS_GL(glRenderbufferStorage);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glRenderbufferStorage(target, internal_format, width, height);
  });
}

void glFramebufferRenderbuffer(GLenum target, GLenum attachment,
                               GLenum rb_target, GLuint renderbuffer) {
  IOS_GL(glFramebufferRenderbuffer);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glFramebufferRenderbuffer(target, attachment, rb_target, renderbuffer);
  }, target, attachment, rb_target, renderbuffer);
}

void glFramebufferTexture2D(GLenum target, GLenum attachment,
                            GLenum tex_target, GLuint texture, GLint level) {
  IOS_GL(glFramebufferTexture2D);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glFramebufferTexture2D(target, attachment, tex_target, texture, level);
  }, target, attachment, tex_target, texture, level);
}

GLenum glCheckFramebufferStatus(GLenum target) {
  IOS_GL(glCheckFramebufferStatus);
  return dispatch(entry, [&](glcore::GlesEngine& gl) {
    return gl.glCheckFramebufferStatus(target);
  });
}

void glGetRenderbufferParameteriv(GLenum target, GLenum pname, GLint* out) {
  IOS_GL(glGetRenderbufferParameteriv);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glGetRenderbufferParameteriv(target, pname, out);
  });
}

// --- Shaders / programs -------------------------------------------------------

GLuint glCreateShader(GLenum type) {
  IOS_GL(glCreateShader);
  return dispatch(
      entry, [&](glcore::GlesEngine& gl) { return gl.glCreateShader(type); });
}

void glDeleteShader(GLuint shader) {
  IOS_GL(glDeleteShader);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glDeleteShader(shader); },
           shader);
}

void glShaderSource(GLuint shader, GLsizei count, const char* const* strings,
                    const GLint* lengths) {
  IOS_GL(glShaderSource);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glShaderSource(shader, count, strings, lengths);
  });
}

void glCompileShader(GLuint shader) {
  IOS_GL(glCompileShader);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glCompileShader(shader); },
           shader);
}

void glGetShaderiv(GLuint shader, GLenum pname, GLint* params) {
  IOS_GL(glGetShaderiv);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glGetShaderiv(shader, pname, params);
  });
}

GLuint glCreateProgram() {
  IOS_GL(glCreateProgram);
  return dispatch(entry,
                  [&](glcore::GlesEngine& gl) { return gl.glCreateProgram(); });
}

void glDeleteProgram(GLuint program) {
  IOS_GL(glDeleteProgram);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glDeleteProgram(program); },
           program);
}

void glAttachShader(GLuint program, GLuint shader) {
  IOS_GL(glAttachShader);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glAttachShader(program, shader);
  }, program, shader);
}

// Conservatively unbatched like glBlendColor above: a handle-only scalar
// site the amendment pipeline can prove batch-safe from a corpus.
void glDetachShader(GLuint program, GLuint shader) {
  IOS_GL(glDetachShader);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glDetachShader(program, shader);
  }, program, shader);
}

void glLinkProgram(GLuint program) {
  IOS_GL(glLinkProgram);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glLinkProgram(program); },
           program);
}

void glGetProgramiv(GLuint program, GLenum pname, GLint* params) {
  IOS_GL(glGetProgramiv);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glGetProgramiv(program, pname, params);
  });
}

void glUseProgram(GLuint program) {
  IOS_GL(glUseProgram);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glUseProgram(program); },
           program);
}

GLint glGetAttribLocation(GLuint program, const char* name) {
  IOS_GL(glGetAttribLocation);
  return dispatch(entry, [&](glcore::GlesEngine& gl) {
    return gl.glGetAttribLocation(program, name);
  });
}

GLint glGetUniformLocation(GLuint program, const char* name) {
  IOS_GL(glGetUniformLocation);
  return dispatch(entry, [&](glcore::GlesEngine& gl) {
    return gl.glGetUniformLocation(program, name);
  });
}

void glUniformMatrix4fv(GLint location, GLsizei count, GLboolean transpose,
                        const GLfloat* value) {
  IOS_GL(glUniformMatrix4fv);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glUniformMatrix4fv(location, count, transpose, value);
  });
}

void glUniform4f(GLint location, GLfloat x, GLfloat y, GLfloat z, GLfloat w) {
  IOS_GL(glUniform4f);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glUniform4f(location, x, y, z, w);
  }, location, x, y, z, w);
}

void glUniform4fv(GLint location, GLsizei count, const GLfloat* value) {
  IOS_GL(glUniform4fv);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glUniform4fv(location, count, value);
  });
}

void glUniform1i(GLint location, GLint value) {
  IOS_GL(glUniform1i);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glUniform1i(location, value); },
                    location, value);
}

void glUniform1f(GLint location, GLfloat value) {
  IOS_GL(glUniform1f);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glUniform1f(location, value); },
                    location, value);
}

// --- Vertex attributes / draws -----------------------------------------------

void glEnableVertexAttribArray(GLuint index) {
  IOS_GL(glEnableVertexAttribArray);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glEnableVertexAttribArray(index);
  }, index);
}

void glDisableVertexAttribArray(GLuint index) {
  IOS_GL(glDisableVertexAttribArray);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glDisableVertexAttribArray(index);
  }, index);
}

void glVertexAttribPointer(GLuint index, GLint size, GLenum type,
                           GLboolean normalized, GLsizei stride,
                           const void* pointer) {
  IOS_GL(glVertexAttribPointer);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glVertexAttribPointer(index, size, type, normalized, stride, pointer);
  });
}

void glVertexAttrib4f(GLuint index, GLfloat x, GLfloat y, GLfloat z,
                      GLfloat w) {
  IOS_GL(glVertexAttrib4f);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glVertexAttrib4f(index, x, y, z, w);
  }, index, x, y, z, w);
}

void glDrawArrays(GLenum mode, GLint first, GLsizei count) {
  IOS_GL(glDrawArrays);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glDrawArrays(mode, first, count);
  });
}

void glDrawElements(GLenum mode, GLsizei count, GLenum type,
                    const void* indices) {
  IOS_GL(glDrawElements);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glDrawElements(mode, count, type, indices);
  });
}

// --- GLES1 fixed function ------------------------------------------------------

void glMatrixMode(GLenum mode) {
  IOS_GL(glMatrixMode);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glMatrixMode(mode); }, mode);
}

void glLoadIdentity() {
  IOS_GL(glLoadIdentity);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glLoadIdentity(); });
}

void glLoadMatrixf(const GLfloat* m) {
  IOS_GL(glLoadMatrixf);
  dispatch(entry, [&](glcore::GlesEngine& gl) { gl.glLoadMatrixf(m); });
}

void glMultMatrixf(const GLfloat* m) {
  IOS_GL(glMultMatrixf);
  dispatch(entry, [&](glcore::GlesEngine& gl) { gl.glMultMatrixf(m); });
}

void glPushMatrix() {
  IOS_GL(glPushMatrix);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glPushMatrix(); });
}

void glPopMatrix() {
  IOS_GL(glPopMatrix);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glPopMatrix(); });
}

void glTranslatef(GLfloat x, GLfloat y, GLfloat z) {
  IOS_GL(glTranslatef);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glTranslatef(x, y, z); },
           x, y, z);
}

void glRotatef(GLfloat angle, GLfloat x, GLfloat y, GLfloat z) {
  IOS_GL(glRotatef);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glRotatef(angle, x, y, z); },
                    angle, x, y, z);
}

void glScalef(GLfloat x, GLfloat y, GLfloat z) {
  IOS_GL(glScalef);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glScalef(x, y, z); },
           x, y, z);
}

void glOrthof(GLfloat l, GLfloat r, GLfloat b, GLfloat t, GLfloat n,
              GLfloat f) {
  IOS_GL(glOrthof);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glOrthof(l, r, b, t, n, f); },
                    l, r, b, t, n, f);
}

void glFrustumf(GLfloat l, GLfloat r, GLfloat b, GLfloat t, GLfloat n,
                GLfloat f) {
  IOS_GL(glFrustumf);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glFrustumf(l, r, b, t, n, f); },
                    l, r, b, t, n, f);
}

void glColor4f(GLfloat r, GLfloat g, GLfloat b, GLfloat a) {
  IOS_GL(glColor4f);
  dispatch(entry, [=](glcore::GlesEngine& gl) { gl.glColor4f(r, g, b, a); },
           r, g, b, a);
}

void glEnableClientState(GLenum array) {
  IOS_GL(glEnableClientState);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glEnableClientState(array); },
                    array);
}

void glDisableClientState(GLenum array) {
  IOS_GL(glDisableClientState);
  dispatch(entry,
           [=](glcore::GlesEngine& gl) { gl.glDisableClientState(array); },
                    array);
}

void glVertexPointer(GLint size, GLenum type, GLsizei stride,
                     const void* pointer) {
  IOS_GL(glVertexPointer);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glVertexPointer(size, type, stride, pointer);
  });
}

void glColorPointer(GLint size, GLenum type, GLsizei stride,
                    const void* pointer) {
  IOS_GL(glColorPointer);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glColorPointer(size, type, stride, pointer);
  });
}

void glTexCoordPointer(GLint size, GLenum type, GLsizei stride,
                       const void* pointer) {
  IOS_GL(glTexCoordPointer);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glTexCoordPointer(size, type, stride, pointer);
  });
}

void glNormalPointer(GLenum type, GLsizei stride, const void* pointer) {
  IOS_GL(glNormalPointer);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glNormalPointer(type, stride, pointer);
  });
}

void glTexEnvi(GLenum target, GLenum pname, GLint param) {
  IOS_GL(glTexEnvi);
  dispatch(entry, [=](glcore::GlesEngine& gl) {
    gl.glTexEnvi(target, pname, param);
  }, target, pname, param);
}

// --- APPLE_fence -> NV_fence indirect diplomats (paper §4.1) -------------------
// The wrapper code runs in the iOS context and re-directs each APPLE_fence
// API to the corresponding NV_fence entry point, re-arranging inputs where
// the object-based variants differ.

void glGenFencesAPPLE(GLsizei n, GLuint* fences) {
  IOS_GL(glGenFencesAPPLE);
  dispatch(entry, [&](glcore::GlesEngine& gl) { gl.glGenFencesNV(n, fences); });
}

void glDeleteFencesAPPLE(GLsizei n, const GLuint* fences) {
  IOS_GL(glDeleteFencesAPPLE);
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glDeleteFencesNV(n, fences); });
}

void glSetFenceAPPLE(GLuint fence) {
  IOS_GL(glSetFenceAPPLE);
  // APPLE_fence's set takes no condition; NV_fence wants ALL_COMPLETED.
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glSetFenceNV(fence, glcore::GL_ALL_COMPLETED_NV);
  });
}

GLboolean glIsFenceAPPLE(GLuint fence) {
  IOS_GL(glIsFenceAPPLE);
  return dispatch(entry,
                  [&](glcore::GlesEngine& gl) { return gl.glIsFenceNV(fence); });
}

GLboolean glTestFenceAPPLE(GLuint fence) {
  IOS_GL(glTestFenceAPPLE);
  return dispatch(
      entry, [&](glcore::GlesEngine& gl) { return gl.glTestFenceNV(fence); });
}

void glFinishFenceAPPLE(GLuint fence) {
  IOS_GL(glFinishFenceAPPLE);
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glFinishFenceNV(fence); });
}

GLboolean glTestObjectAPPLE(GLenum object, GLuint name) {
  IOS_GL(glTestObjectAPPLE);
  if (object != GL_FENCE_APPLE) return glcore::GL_TRUE;
  // Input re-arranging: the object form degenerates to the fence form.
  return dispatch(
      entry, [&](glcore::GlesEngine& gl) { return gl.glTestFenceNV(name); });
}

void glFinishObjectAPPLE(GLenum object, GLint name) {
  IOS_GL(glFinishObjectAPPLE);
  if (object != GL_FENCE_APPLE) return;
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glFinishFenceNV(static_cast<GLuint>(name));
  });
}

}  // namespace cycada::ios_gl
