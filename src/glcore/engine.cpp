// GlesEngine: context/object management, fixed state, textures, buffers,
// framebuffers, shaders and fences. The draw pipeline lives in
// engine_draw.cpp.
#include "glcore/engine.h"

#include <cstring>

#include "gpu/device.h"
#include "kernel/libc.h"
#include "util/log.h"

namespace cycada::glcore {

GlesEngine::GlesEngine(GlesEngineConfig config)
    : config_(std::move(config)), device_(&gpu::GpuDevice::instance()) {
  // Reserve this library copy's current-context TLS slot. Because this runs
  // inside the library constructor, DLR replicas each get their own slot —
  // and the kernel's key-creation hooks see it (paper §7.1).
  tls_key_ = kernel::libc::pthread_key_create();
}

GlesEngine::~GlesEngine() {
  if (tls_key_ != kernel::kInvalidTlsKey) {
    kernel::libc::pthread_key_delete(tls_key_);
  }
}

ContextId GlesEngine::create_context(int gles_version) {
  if (gles_version != 1 && gles_version != 2) return kNoContext;
  std::lock_guard lock(contexts_mutex_);
  auto context = std::make_unique<GlContext>(gles_version);
  context->engine_context_id = next_context_id_++;
  context->creator_tid = kernel::sys_gettid();
  GlContext* raw = context.get();
  context_index_.emplace(raw->engine_context_id, raw);
  contexts_.push_back(std::move(context));
  return raw->engine_context_id;
}

Status GlesEngine::destroy_context(ContextId id) {
  std::lock_guard lock(contexts_mutex_);
  auto it = context_index_.find(id);
  if (it == context_index_.end()) return Status::not_found("no such context");
  GlContext* context = it->second;
  // Release GPU resources the context owns.
  for (auto& [name, texture] : context->textures) {
    if (texture.gpu != gpu::kNoHandle) {
      (void)device().destroy_texture(texture.gpu);
    }
    if (texture.egl_image_buffer != nullptr) {
      texture.egl_image_buffer->remove_egl_image_ref();
    }
  }
  for (auto& [name, renderbuffer] : context->renderbuffers) {
    if (renderbuffer.owns_target && renderbuffer.target != gpu::kNoHandle) {
      (void)device().destroy_target(renderbuffer.target);
    }
  }
  for (auto& [name, framebuffer] : context->framebuffers) {
    if (framebuffer.texture_target != gpu::kNoHandle) {
      (void)device().destroy_target(framebuffer.texture_target);
    }
  }
  context_index_.erase(it);
  std::erase_if(contexts_, [context](const auto& owned) {
    return owned.get() == context;
  });
  return Status::ok();
}

Status GlesEngine::make_current(ContextId id,
                                gpu::RenderTargetHandle default_target) {
  if (id == kNoContext) {
    kernel::libc::pthread_setspecific(tls_key_, nullptr);
    return Status::ok();
  }
  GlContext* context = nullptr;
  {
    std::lock_guard lock(contexts_mutex_);
    auto it = context_index_.find(id);
    if (it == context_index_.end()) {
      return Status::not_found("no such context");
    }
    context = it->second;
  }
  context->default_target = default_target;
  kernel::libc::pthread_setspecific(tls_key_, context);
  return Status::ok();
}

ContextId GlesEngine::current_context_id() {
  GlContext* context = current();
  return context == nullptr ? kNoContext : context->engine_context_id;
}

kernel::Tid GlesEngine::context_creator(ContextId id) {
  std::lock_guard lock(contexts_mutex_);
  auto it = context_index_.find(id);
  return it == context_index_.end() ? kernel::kInvalidTid
                                    : it->second->creator_tid;
}

int GlesEngine::context_version(ContextId id) {
  std::lock_guard lock(contexts_mutex_);
  auto it = context_index_.find(id);
  return it == context_index_.end() ? 0 : it->second->version;
}

Status GlesEngine::set_default_target(gpu::RenderTargetHandle target) {
  GlContext* context = current();
  if (context == nullptr) return Status::failed_precondition("no context");
  context->default_target = target;
  return Status::ok();
}

gpu::RenderTargetHandle GlesEngine::default_target() {
  GlContext* context = current();
  return context == nullptr ? gpu::kNoHandle : context->default_target;
}

GlContext* GlesEngine::current() {
  return static_cast<GlContext*>(kernel::libc::pthread_getspecific(tls_key_));
}

GlContext* GlesEngine::require_context() {
  GlContext* context = current();
  if (context == nullptr) {
    CYCADA_LOG(kDebug) << "GL call with no current context";
  }
  return context;
}

void GlesEngine::record_error(GLenum error) {
  GlContext* context = current();
  if (context != nullptr && context->error == GL_NO_ERROR) {
    context->error = error;
  }
}

TextureObject* GlesEngine::bound_texture_object(GlContext& ctx) {
  const GLuint name = ctx.bound_texture[ctx.active_texture_unit];
  if (name == 0) return nullptr;
  auto it = ctx.textures.find(name);
  return it == ctx.textures.end() ? nullptr : &it->second;
}

gpu::RenderTargetHandle GlesEngine::resolve_draw_target() {
  GlContext* context = current();
  if (context == nullptr) return gpu::kNoHandle;
  if (context->bound_framebuffer == 0) return context->default_target;
  auto it = context->framebuffers.find(context->bound_framebuffer);
  if (it == context->framebuffers.end()) return gpu::kNoHandle;
  const FramebufferObject& fbo = it->second;
  if (fbo.color_renderbuffer != 0) {
    auto rb = context->renderbuffers.find(fbo.color_renderbuffer);
    if (rb != context->renderbuffers.end()) return rb->second.target;
  }
  if (fbo.color_texture != 0) return fbo.texture_target;
  return gpu::kNoHandle;
}

// --- Fixed state -----------------------------------------------------------

void GlesEngine::glClear(GLbitfield mask) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  constexpr GLbitfield kValid =
      GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT | GL_STENCIL_BUFFER_BIT;
  if ((mask & ~kValid) != 0) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  const gpu::RenderTargetHandle target = resolve_draw_target();
  if (target == gpu::kNoHandle) {
    record_error(GL_INVALID_FRAMEBUFFER_OPERATION);
    return;
  }
  std::optional<gpu::ScissorRect> scissor;
  if (ctx->cap_scissor) scissor = ctx->scissor;
  device().submit_clear(target, scissor, (mask & GL_COLOR_BUFFER_BIT) != 0,
                        ctx->clear_color, (mask & GL_DEPTH_BUFFER_BIT) != 0,
                        ctx->clear_depth);
}

void GlesEngine::glClearColor(GLclampf r, GLclampf g, GLclampf b, GLclampf a) {
  if (GlContext* ctx = require_context()) {
    ctx->clear_color = Color{clamp01(r), clamp01(g), clamp01(b), clamp01(a)};
  }
}

void GlesEngine::glClearDepthf(GLclampf depth) {
  if (GlContext* ctx = require_context()) ctx->clear_depth = clamp01(depth);
}

void GlesEngine::glEnable(GLenum cap) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  switch (cap) {
    case GL_DEPTH_TEST: ctx->cap_depth_test = true; break;
    case GL_BLEND: ctx->cap_blend = true; break;
    case GL_SCISSOR_TEST: ctx->cap_scissor = true; break;
    case GL_CULL_FACE: ctx->cap_cull = true; break;
    case GL_TEXTURE_2D: ctx->cap_texture_2d = true; break;
    case GL_LIGHTING:
    case GL_ALPHA_TEST:
    case GL_STENCIL_TEST:
      break;  // accepted, not modeled by the software pipeline
    default: record_error(GL_INVALID_ENUM); break;
  }
}

void GlesEngine::glDisable(GLenum cap) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  switch (cap) {
    case GL_DEPTH_TEST: ctx->cap_depth_test = false; break;
    case GL_BLEND: ctx->cap_blend = false; break;
    case GL_SCISSOR_TEST: ctx->cap_scissor = false; break;
    case GL_CULL_FACE: ctx->cap_cull = false; break;
    case GL_TEXTURE_2D: ctx->cap_texture_2d = false; break;
    case GL_LIGHTING:
    case GL_ALPHA_TEST:
    case GL_STENCIL_TEST:
      break;
    default: record_error(GL_INVALID_ENUM); break;
  }
}

GLboolean GlesEngine::glIsEnabled(GLenum cap) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return GL_FALSE;
  bool enabled = false;
  switch (cap) {
    case GL_DEPTH_TEST: enabled = ctx->cap_depth_test; break;
    case GL_BLEND: enabled = ctx->cap_blend; break;
    case GL_SCISSOR_TEST: enabled = ctx->cap_scissor; break;
    case GL_CULL_FACE: enabled = ctx->cap_cull; break;
    case GL_TEXTURE_2D: enabled = ctx->cap_texture_2d; break;
    case GL_LIGHTING:
    case GL_ALPHA_TEST:
    case GL_STENCIL_TEST:
      break;  // accepted by glEnable, not modeled: reads as disabled
    default: record_error(GL_INVALID_ENUM); break;
  }
  return enabled ? GL_TRUE : GL_FALSE;
}

void GlesEngine::glBlendFunc(GLenum sfactor, GLenum dfactor) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  const auto valid = [](GLenum f) {
    switch (f) {
      case GL_ZERO:
      case GL_ONE:
      case GL_SRC_COLOR:
      case GL_ONE_MINUS_SRC_COLOR:
      case GL_SRC_ALPHA:
      case GL_ONE_MINUS_SRC_ALPHA:
      case GL_DST_ALPHA:
      case GL_ONE_MINUS_DST_ALPHA:
        return true;
      default:
        return false;
    }
  };
  if (!valid(sfactor) || !valid(dfactor)) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  ctx->blend_src = sfactor;
  ctx->blend_dst = dfactor;
}

void GlesEngine::glDepthFunc(GLenum func) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (func < GL_NEVER || func > GL_ALWAYS) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  ctx->depth_func = func;
}

void GlesEngine::glDepthMask(GLboolean flag) {
  if (GlContext* ctx = require_context()) ctx->depth_mask = flag != GL_FALSE;
}

void GlesEngine::glCullFace(GLenum mode) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (mode != GL_FRONT && mode != GL_BACK && mode != GL_FRONT_AND_BACK) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  ctx->cull_mode = mode;
}

void GlesEngine::glViewport(GLint x, GLint y, GLsizei width, GLsizei height) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (width < 0 || height < 0) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  ctx->viewport = gpu::Viewport{x, y, width, height};
}

void GlesEngine::glScissor(GLint x, GLint y, GLsizei width, GLsizei height) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (width < 0 || height < 0) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  ctx->scissor = gpu::ScissorRect{x, y, width, height};
}

void GlesEngine::glFlush() {
  if (require_context() != nullptr) device().flush();
}

void GlesEngine::glFinish() {
  if (require_context() != nullptr) device().finish();
}

GLenum GlesEngine::glGetError() {
  GlContext* ctx = current();
  if (ctx == nullptr) return GL_NO_ERROR;
  const GLenum error = ctx->error;
  ctx->error = GL_NO_ERROR;
  return error;
}

const GLubyte* GlesEngine::glGetString(GLenum name) {
  switch (name) {
    case GL_VENDOR:
      return reinterpret_cast<const GLubyte*>(config_.vendor.c_str());
    case GL_RENDERER:
      return reinterpret_cast<const GLubyte*>(config_.renderer.c_str());
    case GL_VERSION: {
      GlContext* ctx = current();
      const bool v1 = ctx != nullptr && ctx->version == 1;
      return reinterpret_cast<const GLubyte*>(
          v1 ? config_.gles1_version.c_str() : config_.gles2_version.c_str());
    }
    case GL_EXTENSIONS:
      return reinterpret_cast<const GLubyte*>(config_.extensions.c_str());
    case GL_SHADING_LANGUAGE_VERSION:
      return reinterpret_cast<const GLubyte*>("OpenGL ES GLSL ES 1.00");
    default:
      record_error(GL_INVALID_ENUM);
      return nullptr;
  }
}

void GlesEngine::glGetIntegerv(GLenum pname, GLint* params) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || params == nullptr) return;
  switch (pname) {
    case GL_MAX_TEXTURE_SIZE: *params = 4096; break;
    case GL_MAX_VERTEX_ATTRIBS: *params = kMaxVertexAttribs; break;
    case GL_FRAMEBUFFER_BINDING:
      *params = static_cast<GLint>(ctx->bound_framebuffer);
      break;
    case GL_RENDERBUFFER_BINDING:
      *params = static_cast<GLint>(ctx->bound_renderbuffer);
      break;
    case GL_TEXTURE_BINDING_2D:
      *params = static_cast<GLint>(ctx->bound_texture[ctx->active_texture_unit]);
      break;
    case GL_ARRAY_BUFFER_BINDING:
      *params = static_cast<GLint>(ctx->bound_array_buffer);
      break;
    case GL_MATRIX_MODE:
      *params = static_cast<GLint>(ctx->matrix_mode);
      break;
    case GL_COLOR_WRITEMASK:
      for (int i = 0; i < 4; ++i) params[i] = ctx->color_mask[i] ? 1 : 0;
      break;
    case GL_VIEWPORT:
      params[0] = ctx->viewport.x;
      params[1] = ctx->viewport.y;
      params[2] = ctx->viewport.width;
      params[3] = ctx->viewport.height;
      break;
    default:
      record_error(GL_INVALID_ENUM);
      break;
  }
}

void GlesEngine::glPixelStorei(GLenum pname, GLint param) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  switch (pname) {
    case GL_UNPACK_ALIGNMENT: ctx->unpack_alignment = param; break;
    case GL_PACK_ALIGNMENT: ctx->pack_alignment = param; break;
    case GL_PACK_ROW_BYTES_APPLE:
      if (!config_.supports_apple_row_bytes) {
        record_error(GL_INVALID_ENUM);
        return;
      }
      ctx->pack_row_bytes_apple = param;
      break;
    case GL_UNPACK_ROW_BYTES_APPLE:
      if (!config_.supports_apple_row_bytes) {
        record_error(GL_INVALID_ENUM);
        return;
      }
      ctx->unpack_row_bytes_apple = param;
      break;
    default:
      record_error(GL_INVALID_ENUM);
      break;
  }
}

void GlesEngine::glPointSize(GLfloat size) {
  if (GlContext* ctx = require_context()) {
    ctx->point_size = size > 0.f ? size : 1.f;
  }
}

// --- Textures ---------------------------------------------------------------

void GlesEngine::glGenTextures(GLsizei n, GLuint* out) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || out == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint name = ctx->next_name++;
    ctx->textures.emplace(name, TextureObject{});
    out[i] = name;
  }
}

void GlesEngine::glDeleteTextures(GLsizei n, const GLuint* names) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || names == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) {
    auto it = ctx->textures.find(names[i]);
    if (it == ctx->textures.end()) continue;
    if (it->second.gpu != gpu::kNoHandle) {
      (void)device().destroy_texture(it->second.gpu);
    }
    if (it->second.egl_image_buffer != nullptr) {
      it->second.egl_image_buffer->remove_egl_image_ref();
    }
    for (GLuint& bound : ctx->bound_texture) {
      if (bound == names[i]) bound = 0;
    }
    ctx->textures.erase(it);
  }
}

void GlesEngine::glBindTexture(GLenum target, GLuint name) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_TEXTURE_2D) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  if (name != 0 && ctx->textures.find(name) == ctx->textures.end()) {
    // Binding an unknown name creates it (GL semantics).
    ctx->textures.emplace(name, TextureObject{});
    ctx->next_name = std::max(ctx->next_name, name + 1);
  }
  ctx->bound_texture[ctx->active_texture_unit] = name;
}

void GlesEngine::glActiveTexture(GLenum unit) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  const int index = static_cast<int>(unit) - static_cast<int>(GL_TEXTURE0);
  if (index < 0 || index >= kMaxTextureUnits) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  ctx->active_texture_unit = index;
}

void GlesEngine::glTexParameteri(GLenum target, GLenum pname, GLint param) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_TEXTURE_2D) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  TextureObject* texture = bound_texture_object(*ctx);
  if (texture == nullptr) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  switch (pname) {
    case GL_TEXTURE_MIN_FILTER: texture->min_filter = param; break;
    case GL_TEXTURE_MAG_FILTER: texture->mag_filter = param; break;
    case GL_TEXTURE_WRAP_S: texture->wrap_s = param; break;
    case GL_TEXTURE_WRAP_T: texture->wrap_t = param; break;
    default: record_error(GL_INVALID_ENUM); break;
  }
}

namespace {
// Converts an uploaded pixel rectangle to the RGBA8888 working format.
// Returns false for unsupported format/type combinations.
bool convert_pixels(GLenum format, GLenum type, int width, int height,
                    const void* pixels, std::vector<std::uint32_t>& out) {
  out.resize(static_cast<std::size_t>(width) * height);
  const std::size_t count = out.size();
  if (format == GL_RGBA && type == GL_UNSIGNED_BYTE) {
    std::memcpy(out.data(), pixels, count * 4);
    return true;
  }
  if (format == GL_RGB && type == GL_UNSIGNED_BYTE) {
    const auto* src = static_cast<const std::uint8_t*>(pixels);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = static_cast<std::uint32_t>(src[i * 3]) |
               (static_cast<std::uint32_t>(src[i * 3 + 1]) << 8) |
               (static_cast<std::uint32_t>(src[i * 3 + 2]) << 16) |
               0xff000000u;
    }
    return true;
  }
  if (format == GL_RGB && type == GL_UNSIGNED_SHORT_5_6_5) {
    const auto* src = static_cast<const std::uint16_t*>(pixels);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = pack_rgba8888(unpack_rgb565(src[i]));
    }
    return true;
  }
  if ((format == GL_ALPHA || format == GL_LUMINANCE) &&
      type == GL_UNSIGNED_BYTE) {
    const auto* src = static_cast<const std::uint8_t*>(pixels);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t v = src[i];
      out[i] = format == GL_ALPHA ? (v << 24)
                                  : (v | (v << 8) | (v << 16) | 0xff000000u);
    }
    return true;
  }
  return false;
}
}  // namespace

void GlesEngine::glTexImage2D(GLenum target, GLint level, GLint internal_format,
                              GLsizei width, GLsizei height, GLint border,
                              GLenum format, GLenum type, const void* pixels) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  (void)internal_format;
  if (target != GL_TEXTURE_2D || border != 0) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  if (level != 0) return;  // mip levels above 0 accepted and ignored
  TextureObject* texture = bound_texture_object(*ctx);
  if (texture == nullptr) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  if (texture->gpu == gpu::kNoHandle) {
    texture->gpu = device().create_texture();
  }
  // (Re)defining storage drops any EGLImage association — the property the
  // IOSurfaceLock multi diplomat exploits with its 1x1 rebind (paper §6.2).
  if (texture->egl_image_buffer != nullptr) {
    texture->egl_image_buffer->remove_egl_image_ref();
    texture->egl_image_buffer = nullptr;
  }
  if (!device().define_texture(texture->gpu, width, height).is_ok()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  texture->width = width;
  texture->height = height;
  if (pixels != nullptr && width > 0 && height > 0) {
    std::vector<std::uint32_t> converted;
    if (!convert_pixels(format, type, width, height, pixels, converted)) {
      record_error(GL_INVALID_ENUM);
      return;
    }
    (void)device().upload_texture(texture->gpu, 0, 0, width, height,
                                  converted.data(), width);
  }
}

void GlesEngine::glTexSubImage2D(GLenum target, GLint level, GLint x, GLint y,
                                 GLsizei width, GLsizei height, GLenum format,
                                 GLenum type, const void* pixels) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_TEXTURE_2D || level != 0 || pixels == nullptr) {
    if (target != GL_TEXTURE_2D) record_error(GL_INVALID_ENUM);
    return;
  }
  TextureObject* texture = bound_texture_object(*ctx);
  if (texture == nullptr || texture->gpu == gpu::kNoHandle) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  std::vector<std::uint32_t> converted;
  if (!convert_pixels(format, type, width, height, pixels, converted)) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  if (!device()
           .upload_texture(texture->gpu, x, y, width, height, converted.data(),
                           width)
           .is_ok()) {
    record_error(GL_INVALID_VALUE);
  }
}

GLboolean GlesEngine::glIsTexture(GLuint name) {
  GlContext* ctx = current();
  return ctx != nullptr && ctx->textures.find(name) != ctx->textures.end()
             ? GL_TRUE
             : GL_FALSE;
}

void GlesEngine::glEGLImageTargetTexture2DOES(GLenum target, void* egl_image) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_TEXTURE_2D || egl_image == nullptr) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  TextureObject* texture = bound_texture_object(*ctx);
  if (texture == nullptr) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  auto* image = static_cast<EglImage*>(egl_image);
  if (image->buffer == nullptr) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  if (texture->gpu == gpu::kNoHandle) {
    texture->gpu = device().create_texture();
  }
  if (texture->egl_image_buffer != nullptr) {
    texture->egl_image_buffer->remove_egl_image_ref();
    texture->egl_image_buffer = nullptr;
  }
  // Alias the GraphicBuffer memory as texture storage (zero-copy), and
  // record the association that blocks CPU locks (paper §6.2).
  if (!image->buffer->add_egl_image_ref().is_ok()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  const Status bind = device().bind_texture_external(
      texture->gpu, image->buffer->pixels32(), image->buffer->width(),
      image->buffer->height(), image->buffer->stride_px());
  if (!bind.is_ok()) {
    image->buffer->remove_egl_image_ref();
    record_error(GL_INVALID_OPERATION);
    return;
  }
  texture->egl_image_buffer = image->buffer;
  texture->width = image->buffer->width();
  texture->height = image->buffer->height();
}

// --- Buffers ----------------------------------------------------------------

void GlesEngine::glGenBuffers(GLsizei n, GLuint* out) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || out == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint name = ctx->next_name++;
    ctx->buffers.emplace(name, BufferObject{});
    out[i] = name;
  }
}

void GlesEngine::glDeleteBuffers(GLsizei n, const GLuint* names) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || names == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) {
    ctx->buffers.erase(names[i]);
    if (ctx->bound_array_buffer == names[i]) ctx->bound_array_buffer = 0;
    if (ctx->bound_element_buffer == names[i]) ctx->bound_element_buffer = 0;
  }
}

void GlesEngine::glBindBuffer(GLenum target, GLuint name) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (name != 0 && ctx->buffers.find(name) == ctx->buffers.end()) {
    ctx->buffers.emplace(name, BufferObject{});
    ctx->next_name = std::max(ctx->next_name, name + 1);
  }
  switch (target) {
    case GL_ARRAY_BUFFER: ctx->bound_array_buffer = name; break;
    case GL_ELEMENT_ARRAY_BUFFER: ctx->bound_element_buffer = name; break;
    default: record_error(GL_INVALID_ENUM); break;
  }
}

void GlesEngine::glBufferData(GLenum target, GLsizeiptr size, const void* data,
                              GLenum usage) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  const GLuint name = target == GL_ARRAY_BUFFER ? ctx->bound_array_buffer
                      : target == GL_ELEMENT_ARRAY_BUFFER
                          ? ctx->bound_element_buffer
                          : 0;
  if (name == 0) {
    record_error(target == GL_ARRAY_BUFFER || target == GL_ELEMENT_ARRAY_BUFFER
                     ? GL_INVALID_OPERATION
                     : GL_INVALID_ENUM);
    return;
  }
  if (size < 0) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  BufferObject& buffer = ctx->buffers[name];
  buffer.usage = usage;
  buffer.data.resize(static_cast<std::size_t>(size));
  if (data != nullptr && size > 0) {
    std::memcpy(buffer.data.data(), data, static_cast<std::size_t>(size));
  }
}

void GlesEngine::glBufferSubData(GLenum target, GLintptr offset,
                                 GLsizeiptr size, const void* data) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || data == nullptr) return;
  const GLuint name = target == GL_ARRAY_BUFFER ? ctx->bound_array_buffer
                      : target == GL_ELEMENT_ARRAY_BUFFER
                          ? ctx->bound_element_buffer
                          : 0;
  if (name == 0) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  BufferObject& buffer = ctx->buffers[name];
  if (offset < 0 || size < 0 ||
      static_cast<std::size_t>(offset + size) > buffer.data.size()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  std::memcpy(buffer.data.data() + offset, data,
              static_cast<std::size_t>(size));
}

// --- Framebuffers / renderbuffers --------------------------------------------

void GlesEngine::glGenFramebuffers(GLsizei n, GLuint* out) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || out == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint name = ctx->next_name++;
    ctx->framebuffers.emplace(name, FramebufferObject{});
    out[i] = name;
  }
}

void GlesEngine::glDeleteFramebuffers(GLsizei n, const GLuint* names) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || names == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) {
    auto it = ctx->framebuffers.find(names[i]);
    if (it == ctx->framebuffers.end()) continue;
    if (it->second.texture_target != gpu::kNoHandle) {
      (void)device().destroy_target(it->second.texture_target);
    }
    if (ctx->bound_framebuffer == names[i]) ctx->bound_framebuffer = 0;
    ctx->framebuffers.erase(it);
  }
}

void GlesEngine::glBindFramebuffer(GLenum target, GLuint name) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_FRAMEBUFFER) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  if (name != 0 && ctx->framebuffers.find(name) == ctx->framebuffers.end()) {
    ctx->framebuffers.emplace(name, FramebufferObject{});
    ctx->next_name = std::max(ctx->next_name, name + 1);
  }
  ctx->bound_framebuffer = name;
}

void GlesEngine::glGenRenderbuffers(GLsizei n, GLuint* out) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || out == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint name = ctx->next_name++;
    ctx->renderbuffers.emplace(name, RenderbufferObject{});
    out[i] = name;
  }
}

void GlesEngine::glDeleteRenderbuffers(GLsizei n, const GLuint* names) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || names == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) {
    auto it = ctx->renderbuffers.find(names[i]);
    if (it == ctx->renderbuffers.end()) continue;
    if (it->second.owns_target && it->second.target != gpu::kNoHandle) {
      (void)device().destroy_target(it->second.target);
    }
    if (ctx->bound_renderbuffer == names[i]) ctx->bound_renderbuffer = 0;
    ctx->renderbuffers.erase(it);
  }
}

void GlesEngine::glBindRenderbuffer(GLenum target, GLuint name) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_RENDERBUFFER) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  if (name != 0 && ctx->renderbuffers.find(name) == ctx->renderbuffers.end()) {
    ctx->renderbuffers.emplace(name, RenderbufferObject{});
    ctx->next_name = std::max(ctx->next_name, name + 1);
  }
  ctx->bound_renderbuffer = name;
}

void GlesEngine::glRenderbufferStorage(GLenum target, GLenum internal_format,
                                       GLsizei width, GLsizei height) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_RENDERBUFFER) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  auto it = ctx->renderbuffers.find(ctx->bound_renderbuffer);
  if (it == ctx->renderbuffers.end()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  RenderbufferObject& rb = it->second;
  if (rb.owns_target && rb.target != gpu::kNoHandle) {
    (void)device().destroy_target(rb.target);
  }
  rb.backing_buffer = nullptr;
  // Color storage gets a depth plane too; a depth attachment then simply
  // enables depth testing against the same target (engine simplification).
  rb.target = device().create_target(width, height, /*with_depth=*/true);
  rb.owns_target = true;
  rb.width = width;
  rb.height = height;
  rb.internal_format = internal_format;
}

Status GlesEngine::renderbuffer_storage_from_buffer(
    GLuint renderbuffer, std::shared_ptr<gmem::GraphicBuffer> buffer) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return Status::failed_precondition("no context");
  if (buffer == nullptr) return Status::invalid_argument("null buffer");
  auto it = ctx->renderbuffers.find(renderbuffer);
  if (it == ctx->renderbuffers.end()) {
    return Status::not_found("no such renderbuffer");
  }
  RenderbufferObject& rb = it->second;
  if (rb.owns_target && rb.target != gpu::kNoHandle) {
    (void)device().destroy_target(rb.target);
  }
  rb.target = device().create_target_external(
      buffer->pixels32(), buffer->width(), buffer->height(),
      buffer->stride_px(), /*with_depth=*/true);
  rb.owns_target = true;  // the GPU target wrapper is ours; memory is not
  rb.width = buffer->width();
  rb.height = buffer->height();
  rb.internal_format = GL_RGBA8_OES;
  rb.backing_buffer = std::move(buffer);
  return Status::ok();
}

void GlesEngine::glFramebufferRenderbuffer(GLenum target, GLenum attachment,
                                           GLenum rb_target,
                                           GLuint renderbuffer) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_FRAMEBUFFER || rb_target != GL_RENDERBUFFER) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  auto it = ctx->framebuffers.find(ctx->bound_framebuffer);
  if (it == ctx->framebuffers.end()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  if (renderbuffer != 0 &&
      ctx->renderbuffers.find(renderbuffer) == ctx->renderbuffers.end()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  switch (attachment) {
    case GL_COLOR_ATTACHMENT0:
      it->second.color_renderbuffer = renderbuffer;
      it->second.color_texture = 0;
      break;
    case GL_DEPTH_ATTACHMENT:
      it->second.depth_renderbuffer = renderbuffer;
      break;
    case GL_STENCIL_ATTACHMENT:
      break;  // accepted; stencil is not modeled
    default:
      record_error(GL_INVALID_ENUM);
      break;
  }
}

void GlesEngine::glFramebufferTexture2D(GLenum target, GLenum attachment,
                                        GLenum tex_target, GLuint texture,
                                        GLint level) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_FRAMEBUFFER || tex_target != GL_TEXTURE_2D || level != 0) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  auto fb = ctx->framebuffers.find(ctx->bound_framebuffer);
  if (fb == ctx->framebuffers.end()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  if (attachment != GL_COLOR_ATTACHMENT0) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  if (fb->second.texture_target != gpu::kNoHandle) {
    (void)device().destroy_target(fb->second.texture_target);
    fb->second.texture_target = gpu::kNoHandle;
  }
  fb->second.color_texture = texture;
  fb->second.color_renderbuffer = 0;
  if (texture == 0) return;
  auto tex = ctx->textures.find(texture);
  if (tex == ctx->textures.end() || tex->second.gpu == gpu::kNoHandle) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  // Create a GPU target aliasing the texture storage (render-to-texture).
  auto view = device().texture_view(tex->second.gpu);
  if (!view.is_ok()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  fb->second.texture_target = device().create_target_external(
      const_cast<std::uint32_t*>(view->texels), view->width, view->height,
      view->stride_px, /*with_depth=*/true);
}

GLenum GlesEngine::glCheckFramebufferStatus(GLenum target) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || target != GL_FRAMEBUFFER) return 0;
  if (ctx->bound_framebuffer == 0) return GL_FRAMEBUFFER_COMPLETE;
  auto it = ctx->framebuffers.find(ctx->bound_framebuffer);
  if (it == ctx->framebuffers.end()) return GL_FRAMEBUFFER_UNSUPPORTED;
  const FramebufferObject& fbo = it->second;
  if (fbo.color_renderbuffer == 0 && fbo.color_texture == 0) {
    return GL_FRAMEBUFFER_INCOMPLETE_ATTACHMENT;
  }
  return GL_FRAMEBUFFER_COMPLETE;
}

void GlesEngine::glGetRenderbufferParameteriv(GLenum target, GLenum pname,
                                              GLint* out) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || out == nullptr) return;
  if (target != GL_RENDERBUFFER) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  auto it = ctx->renderbuffers.find(ctx->bound_renderbuffer);
  if (it == ctx->renderbuffers.end()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  switch (pname) {
    case GL_RENDERBUFFER_WIDTH: *out = it->second.width; break;
    case GL_RENDERBUFFER_HEIGHT: *out = it->second.height; break;
    default: record_error(GL_INVALID_ENUM); break;
  }
}

// --- Shaders / programs -------------------------------------------------------

GLuint GlesEngine::glCreateShader(GLenum type) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return 0;
  if (type != GL_VERTEX_SHADER && type != GL_FRAGMENT_SHADER) {
    record_error(GL_INVALID_ENUM);
    return 0;
  }
  const GLuint name = ctx->next_name++;
  ShaderObject shader;
  shader.type = type;
  ctx->shaders.emplace(name, std::move(shader));
  return name;
}

void GlesEngine::glDeleteShader(GLuint shader) {
  if (GlContext* ctx = require_context()) ctx->shaders.erase(shader);
}

void GlesEngine::glShaderSource(GLuint shader, GLsizei count,
                                const char* const* strings,
                                const GLint* lengths) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || strings == nullptr) return;
  auto it = ctx->shaders.find(shader);
  if (it == ctx->shaders.end()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  std::string source;
  for (GLsizei i = 0; i < count; ++i) {
    if (strings[i] == nullptr) continue;
    if (lengths != nullptr && lengths[i] >= 0) {
      source.append(strings[i], static_cast<std::size_t>(lengths[i]));
    } else {
      source.append(strings[i]);
    }
  }
  it->second.source = std::move(source);
  it->second.compiled = false;
}

void GlesEngine::glCompileShader(GLuint shader) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  auto it = ctx->shaders.find(shader);
  if (it == ctx->shaders.end()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  // The pattern-matching shader front end: any source in the engine's GLSL
  // dialect compiles; behavior is recovered at link time.
  it->second.compiled = true;
}

void GlesEngine::glGetShaderiv(GLuint shader, GLenum pname, GLint* params) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || params == nullptr) return;
  auto it = ctx->shaders.find(shader);
  if (it == ctx->shaders.end()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  switch (pname) {
    case GL_COMPILE_STATUS:
      *params = it->second.compiled ? GL_TRUE : GL_FALSE;
      break;
    case GL_INFO_LOG_LENGTH: *params = 0; break;
    default: record_error(GL_INVALID_ENUM); break;
  }
}

GLuint GlesEngine::glCreateProgram() {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return 0;
  const GLuint name = ctx->next_name++;
  ctx->programs.emplace(name, ProgramObject{});
  return name;
}

void GlesEngine::glDeleteProgram(GLuint program) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  ctx->programs.erase(program);
  if (ctx->current_program == program) ctx->current_program = 0;
}

void GlesEngine::glAttachShader(GLuint program, GLuint shader) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  auto program_it = ctx->programs.find(program);
  auto shader_it = ctx->shaders.find(shader);
  if (program_it == ctx->programs.end() || shader_it == ctx->shaders.end()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  if (shader_it->second.type == GL_VERTEX_SHADER) {
    program_it->second.vertex_shader = shader;
  } else {
    program_it->second.fragment_shader = shader;
  }
}

void GlesEngine::glLinkProgram(GLuint program) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  auto it = ctx->programs.find(program);
  if (it == ctx->programs.end()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  ProgramObject& prog = it->second;
  auto vs = ctx->shaders.find(prog.vertex_shader);
  auto fs = ctx->shaders.find(prog.fragment_shader);
  if (vs == ctx->shaders.end() || fs == ctx->shaders.end() ||
      !vs->second.compiled || !fs->second.compiled) {
    prog.linked = false;
    return;
  }
  // Recover pipeline behavior from the sources (the engine's "linker").
  prog.uses_vertex_color =
      vs->second.source.find("a_color") != std::string::npos;
  prog.uses_texture =
      fs->second.source.find("texture2D") != std::string::npos;
  prog.linked = true;
}

void GlesEngine::glGetProgramiv(GLuint program, GLenum pname, GLint* params) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || params == nullptr) return;
  auto it = ctx->programs.find(program);
  if (it == ctx->programs.end()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  switch (pname) {
    case GL_LINK_STATUS:
      *params = it->second.linked ? GL_TRUE : GL_FALSE;
      break;
    case GL_INFO_LOG_LENGTH: *params = 0; break;
    default: record_error(GL_INVALID_ENUM); break;
  }
}

void GlesEngine::glUseProgram(GLuint program) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (program != 0 && ctx->programs.find(program) == ctx->programs.end()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  ctx->current_program = program;
}

GLint GlesEngine::glGetAttribLocation(GLuint program, const char* name) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || name == nullptr) return -1;
  if (ctx->programs.find(program) == ctx->programs.end()) {
    record_error(GL_INVALID_VALUE);
    return -1;
  }
  const std::string_view attr{name};
  if (attr == "a_position") return 0;
  if (attr == "a_color") return 1;
  if (attr == "a_texcoord") return 2;
  return -1;
}

GLint GlesEngine::glGetUniformLocation(GLuint program, const char* name) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || name == nullptr) return -1;
  if (ctx->programs.find(program) == ctx->programs.end()) {
    record_error(GL_INVALID_VALUE);
    return -1;
  }
  const std::string_view uniform{name};
  if (uniform == "u_mvp") return 0;
  if (uniform == "u_color") return 1;
  if (uniform == "u_tex") return 2;
  return -1;
}

namespace {
ProgramObject* current_program_object(GlContext* ctx) {
  if (ctx == nullptr || ctx->current_program == 0) return nullptr;
  auto it = ctx->programs.find(ctx->current_program);
  return it == ctx->programs.end() ? nullptr : &it->second;
}
}  // namespace

void GlesEngine::glUniformMatrix4fv(GLint location, GLsizei count,
                                    GLboolean transpose, const GLfloat* value) {
  GlContext* ctx = require_context();
  ProgramObject* prog = current_program_object(ctx);
  if (prog == nullptr || value == nullptr || count < 1) return;
  if (location != 0) {
    if (location >= 0) record_error(GL_INVALID_OPERATION);
    return;
  }
  Mat4 m;
  std::memcpy(m.m.data(), value, sizeof(float) * 16);
  if (transpose == GL_TRUE) {
    Mat4 t;
    for (int row = 0; row < 4; ++row) {
      for (int col = 0; col < 4; ++col) t.at(row, col) = m.at(col, row);
    }
    m = t;
  }
  prog->u_mvp = m;
}

void GlesEngine::glUniform4f(GLint location, GLfloat x, GLfloat y, GLfloat z,
                             GLfloat w) {
  GlContext* ctx = require_context();
  ProgramObject* prog = current_program_object(ctx);
  if (prog == nullptr) return;
  if (location != 1) {
    if (location >= 0) record_error(GL_INVALID_OPERATION);
    return;
  }
  prog->u_color = Vec4{x, y, z, w};
}

void GlesEngine::glUniform4fv(GLint location, GLsizei count,
                              const GLfloat* value) {
  if (value == nullptr || count < 1) return;
  glUniform4f(location, value[0], value[1], value[2], value[3]);
}

void GlesEngine::glUniform1i(GLint location, GLint value) {
  GlContext* ctx = require_context();
  ProgramObject* prog = current_program_object(ctx);
  if (prog == nullptr) return;
  if (location != 2) {
    if (location >= 0) record_error(GL_INVALID_OPERATION);
    return;
  }
  prog->u_tex_unit = value;
}

void GlesEngine::glUniform1f(GLint location, GLfloat value) {
  (void)value;
  if (location >= 0 && location > 2) record_error(GL_INVALID_OPERATION);
}

// --- Vertex attributes ---------------------------------------------------------

void GlesEngine::glEnableVertexAttribArray(GLuint index) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (index >= kMaxVertexAttribs) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  ctx->attribs[index].enabled = true;
}

void GlesEngine::glDisableVertexAttribArray(GLuint index) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (index >= kMaxVertexAttribs) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  ctx->attribs[index].enabled = false;
}

void GlesEngine::glVertexAttribPointer(GLuint index, GLint size, GLenum type,
                                       GLboolean normalized, GLsizei stride,
                                       const void* pointer) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (index >= kMaxVertexAttribs || size < 1 || size > 4 || stride < 0) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  VertexAttrib& attrib = ctx->attribs[index];
  attrib.size = size;
  attrib.type = type;
  attrib.normalized = normalized != GL_FALSE;
  attrib.stride = stride;
  attrib.pointer = pointer;
  attrib.buffer = ctx->bound_array_buffer;
}

void GlesEngine::glVertexAttrib4f(GLuint index, GLfloat x, GLfloat y,
                                  GLfloat z, GLfloat w) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (index >= kMaxVertexAttribs) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  ctx->attribs[index].constant = Vec4{x, y, z, w};
}

// --- GLES1 fixed function -------------------------------------------------------

namespace {
std::vector<Mat4>* stack_for_mode(GlContext& ctx) {
  switch (ctx.matrix_mode) {
    case GL_MODELVIEW: return &ctx.modelview_stack;
    case GL_PROJECTION: return &ctx.projection_stack;
    case GL_TEXTURE: return &ctx.texture_stack;
    default: return nullptr;
  }
}
}  // namespace

void GlesEngine::glMatrixMode(GLenum mode) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (mode != GL_MODELVIEW && mode != GL_PROJECTION && mode != GL_TEXTURE) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  ctx->matrix_mode = mode;
}

void GlesEngine::glLoadIdentity() {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  stack_for_mode(*ctx)->back() = Mat4::identity();
}

void GlesEngine::glLoadMatrixf(const GLfloat* m) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || m == nullptr) return;
  Mat4& top = stack_for_mode(*ctx)->back();
  std::memcpy(top.m.data(), m, sizeof(float) * 16);
}

void GlesEngine::glMultMatrixf(const GLfloat* m) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || m == nullptr) return;
  Mat4 rhs;
  std::memcpy(rhs.m.data(), m, sizeof(float) * 16);
  Mat4& top = stack_for_mode(*ctx)->back();
  top = top * rhs;
}

void GlesEngine::glPushMatrix() {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  std::vector<Mat4>* stack = stack_for_mode(*ctx);
  if (stack->size() >= 32) {
    record_error(GL_INVALID_OPERATION);  // GL_STACK_OVERFLOW in full GL
    return;
  }
  stack->push_back(stack->back());
}

void GlesEngine::glPopMatrix() {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  std::vector<Mat4>* stack = stack_for_mode(*ctx);
  if (stack->size() <= 1) {
    record_error(GL_INVALID_OPERATION);  // GL_STACK_UNDERFLOW in full GL
    return;
  }
  stack->pop_back();
}

void GlesEngine::glTranslatef(GLfloat x, GLfloat y, GLfloat z) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  Mat4& top = stack_for_mode(*ctx)->back();
  top = top * Mat4::translate(x, y, z);
}

void GlesEngine::glRotatef(GLfloat angle, GLfloat x, GLfloat y, GLfloat z) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  Mat4& top = stack_for_mode(*ctx)->back();
  top = top * Mat4::rotate(angle, x, y, z);
}

void GlesEngine::glScalef(GLfloat x, GLfloat y, GLfloat z) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  Mat4& top = stack_for_mode(*ctx)->back();
  top = top * Mat4::scale(x, y, z);
}

void GlesEngine::glOrthof(GLfloat l, GLfloat r, GLfloat b, GLfloat t,
                          GLfloat n, GLfloat f) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  Mat4& top = stack_for_mode(*ctx)->back();
  top = top * Mat4::ortho(l, r, b, t, n, f);
}

void GlesEngine::glFrustumf(GLfloat l, GLfloat r, GLfloat b, GLfloat t,
                            GLfloat n, GLfloat f) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  Mat4& top = stack_for_mode(*ctx)->back();
  top = top * Mat4::frustum(l, r, b, t, n, f);
}

void GlesEngine::glColor4f(GLfloat r, GLfloat g, GLfloat b, GLfloat a) {
  if (GlContext* ctx = require_context()) {
    ctx->current_color = Color{r, g, b, a};
  }
}

namespace {
ClientArray* client_array(GlContext& ctx, GLenum array) {
  switch (array) {
    case GL_VERTEX_ARRAY: return &ctx.vertex_array;
    case GL_COLOR_ARRAY: return &ctx.color_array;
    case GL_TEXTURE_COORD_ARRAY: return &ctx.texcoord_array;
    case GL_NORMAL_ARRAY: return &ctx.normal_array;
    default: return nullptr;
  }
}
}  // namespace

void GlesEngine::glEnableClientState(GLenum array) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (ClientArray* arr = client_array(*ctx, array)) {
    arr->enabled = true;
  } else {
    record_error(GL_INVALID_ENUM);
  }
}

void GlesEngine::glDisableClientState(GLenum array) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (ClientArray* arr = client_array(*ctx, array)) {
    arr->enabled = false;
  } else {
    record_error(GL_INVALID_ENUM);
  }
}

void GlesEngine::glVertexPointer(GLint size, GLenum type, GLsizei stride,
                                 const void* pointer) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  ctx->vertex_array = ClientArray{ctx->vertex_array.enabled, size, type,
                                  stride, pointer};
}

void GlesEngine::glColorPointer(GLint size, GLenum type, GLsizei stride,
                                const void* pointer) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  ctx->color_array =
      ClientArray{ctx->color_array.enabled, size, type, stride, pointer};
}

void GlesEngine::glTexCoordPointer(GLint size, GLenum type, GLsizei stride,
                                   const void* pointer) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  ctx->texcoord_array =
      ClientArray{ctx->texcoord_array.enabled, size, type, stride, pointer};
}

void GlesEngine::glNormalPointer(GLenum type, GLsizei stride,
                                 const void* pointer) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  ctx->normal_array =
      ClientArray{ctx->normal_array.enabled, 3, type, stride, pointer};
}

void GlesEngine::glTexEnvi(GLenum target, GLenum pname, GLint param) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_TEXTURE_ENV || pname != GL_TEXTURE_ENV_MODE) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  if (param != GL_MODULATE && param != GL_REPLACE) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  ctx->tex_env_mode = static_cast<GLenum>(param);
}

// --- NV_fence ------------------------------------------------------------------

void GlesEngine::glGenFencesNV(GLsizei n, GLuint* fences) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || fences == nullptr) return;
  if (!config_.supports_nv_fence) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  for (GLsizei i = 0; i < n; ++i) {
    const GLuint name = ctx->next_name++;
    ctx->fences.emplace(name, gpu::kNoHandle);
    fences[i] = name;
  }
}

void GlesEngine::glDeleteFencesNV(GLsizei n, const GLuint* fences) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || fences == nullptr) return;
  for (GLsizei i = 0; i < n; ++i) ctx->fences.erase(fences[i]);
}

void GlesEngine::glSetFenceNV(GLuint fence, GLenum condition) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (condition != GL_ALL_COMPLETED_NV) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  auto it = ctx->fences.find(fence);
  if (it == ctx->fences.end()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  it->second = device().submit_fence();
}

GLboolean GlesEngine::glTestFenceNV(GLuint fence) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return GL_TRUE;
  auto it = ctx->fences.find(fence);
  if (it == ctx->fences.end() || it->second == gpu::kNoHandle) {
    record_error(GL_INVALID_OPERATION);
    return GL_TRUE;
  }
  return device().fence_signaled(it->second) ? GL_TRUE : GL_FALSE;
}

void GlesEngine::glFinishFenceNV(GLuint fence) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  auto it = ctx->fences.find(fence);
  if (it == ctx->fences.end() || it->second == gpu::kNoHandle) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  device().wait_fence(it->second);
}

GLboolean GlesEngine::glIsFenceNV(GLuint fence) {
  GlContext* ctx = current();
  return ctx != nullptr && ctx->fences.find(fence) != ctx->fences.end()
             ? GL_TRUE
             : GL_FALSE;
}

}  // namespace cycada::glcore
